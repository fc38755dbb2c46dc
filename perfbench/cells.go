package main

import (
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/cilkview"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/stats"
	"bigtiny/internal/wsrt"
)

// cell is one unit of the paper-ref and table3-test worklists: a
// simulation of app on the cfg machine, or (view) a Cilkview analysis
// of app.
type cell struct {
	cfg  string
	app  string
	view bool
}

// The three protocols paper-ref keeps on both core counts.
var (
	refConfigs64  = []string{"bT/MESI", "bT/HCC-gwb", "bT/HCC-DTS-gwb"}
	refConfigs256 = []string{"bT256/MESI", "bT256/HCC-DTS-gwb"}
	refApps64     = []string{"cilk5-cs", "cilk5-nq", "ligra-bfs"}
	refApps256    = []string{"ligra-bfs"}
)

// table3Configs is the Table III column set, in the order bench.Suite's
// Table3Work lists it.
var table3Configs = []string{
	"IOx1", "O3x1", "O3x4", "O3x8", "bT/MESI",
	"bT/HCC-dnv", "bT/HCC-gwt", "bT/HCC-gwb",
	"bT/HCC-DTS-dnv", "bT/HCC-DTS-gwt", "bT/HCC-DTS-gwb",
}

// paperRefCells is the paper-ref worklist: ref-size cells on the
// 64-core machine under MESI, HCC-gwb and HCC-DTS-gwb, plus the
// 256-core machine under MESI and HCC-DTS-gwb.
func paperRefCells() []cell {
	var cells []cell
	for _, app := range refApps64 {
		for _, cfg := range refConfigs64 {
			cells = append(cells, cell{cfg: cfg, app: app})
		}
	}
	for _, app := range refApps256 {
		for _, cfg := range refConfigs256 {
			cells = append(cells, cell{cfg: cfg, app: app})
		}
	}
	return cells
}

// table3Cells is the Table III worklist for appNames: per app, one
// Cilkview analysis and one simulation per Table III configuration.
func table3Cells(appNames []string) []cell {
	var cells []cell
	for _, app := range appNames {
		cells = append(cells, cell{app: app, view: true})
		for _, cfg := range table3Configs {
			cells = append(cells, cell{cfg: cfg, app: app})
		}
	}
	return cells
}

// allApps lists every registered app.
func allApps() []string {
	var names []string
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	return names
}

// cellsWorkload runs a fixed worklist of cells serially, one pass at a
// time.
type cellsWorkload struct {
	cells []cell
	size  apps.Size
}

// cellOut is what one cell reports back to its pass.
type cellOut struct {
	steps     [numSteps]time.Duration
	cores     int
	newAllocs uint64
	runAllocs uint64
	run       *stats.Run
	events    uint64
	fastWaits uint64
	hopsSum   uint64
	sends     uint64
	viewWork  uint64
}

// The timed steps of one simulation cell, in the order bench.Suite's
// simulate calls them.
const (
	stepNew = iota
	stepWsrt
	stepSetup
	stepRun
	stepVerify
	stepCollect
	numSteps
)

var stepNames = [numSteps]string{"machine.New", "wsrt.New", "app.Setup", "rt.Run", "Verify", "stats.Collect"}

// heapAllocs reads the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runCell simulates (or analyses) one cell through the same public
// calls, in the same order, as bench.Suite's simulate: machine.Lookup,
// machine.New, wsrt.New, app.Setup, rt.Run, inst.Verify, stats.Collect.
// A panic anywhere in the cell becomes its error. With a recorder, each
// step is a child span of the cell's span and allocations are counted.
func runCell(c cell, size apps.Size, id int, rec *recorder) (out cellOut, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic in %s on %s: %v\n%s", c.app, c.cfg, v, debug.Stack())
		}
	}()
	app, err := apps.ByName(c.app)
	if err != nil {
		return out, err
	}
	if c.view {
		sp := rec.begin(id, "cilkview", -1)
		rep := cilkview.Analyze(func(rt *wsrt.RT) wsrt.Body {
			rt.Grain = app.DefaultGrain
			return app.Setup(rt, size, 0).Root
		})
		rec.end(sp)
		out.viewWork = rep.Work
		return out, nil
	}
	root := rec.begin(id, "cell", -1)
	defer rec.end(root)
	cfg, err := machine.Lookup(c.cfg)
	if err != nil {
		return out, err
	}
	out.cores = cfg.NumCores()

	var sp int
	var t0 time.Time
	var a0 uint64
	step := func(i int) {
		t0 = time.Now()
		sp = rec.begin(id, stepNames[i], root)
		if rec != nil && (i == stepNew || i == stepRun) {
			a0 = heapAllocs()
		}
	}
	done := func(i int) {
		rec.end(sp)
		out.steps[i] = time.Since(t0)
		if rec == nil {
			return
		}
		switch i {
		case stepNew:
			out.newAllocs = heapAllocs() - a0
		case stepRun:
			out.runAllocs = heapAllocs() - a0
		}
	}

	step(stepNew)
	m := machine.New(cfg)
	done(stepNew)

	step(stepWsrt)
	rt := wsrt.New(m, wsrt.AutoVariant(m))
	rt.Grain = app.DefaultGrain
	done(stepWsrt)

	step(stepSetup)
	inst := app.Setup(rt, size, 0)
	done(stepSetup)

	body := inst.Root
	if c.cfg == "IOx1" {
		body = inst.SerialRoot
	}
	step(stepRun)
	err = rt.Run(body)
	done(stepRun)
	if err != nil {
		return out, fmt.Errorf("%s on %s: %w", c.app, c.cfg, err)
	}

	step(stepVerify)
	err = inst.Verify(func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) })
	done(stepVerify)
	if err != nil {
		return out, fmt.Errorf("%s on %s: verification failed: %w", c.app, c.cfg, err)
	}

	step(stepCollect)
	out.run = stats.Collect(m, rt, c.app)
	done(stepCollect)

	out.events = m.Kernel.Fired()
	out.fastWaits = m.Kernel.FastWaits()
	out.hopsSum = m.Mesh.HopsSum
	out.sends = m.Mesh.Sends
	return out, nil
}

// pass runs every cell once, serially, and sums their measurements; a
// traced pass also reports each layer's self time from the spans.
func (w *cellsWorkload) pass(rec *recorder) *passResult {
	pr := newPassResult()
	var mark int
	if rec != nil {
		mark = rec.mark()
	}
	var new64, new256, allocs64 []float64
	var steps [numSteps]time.Duration
	start := time.Now()
	for _, c := range w.cells {
		t := time.Now()
		out, err := runCell(c, w.size, rec.newID(), rec)
		pr.ops++
		pr.lat = append(pr.lat, ms(time.Since(t)))
		if err != nil {
			pr.fail(err.Error())
			continue
		}
		if c.view {
			pr.counts["cilkview.work"] += float64(out.viewWork)
			continue
		}
		for s := range steps {
			steps[s] += out.steps[s]
		}
		switch out.cores {
		case 64:
			new64 = append(new64, ms(out.steps[stepNew]))
			allocs64 = append(allocs64, float64(out.newAllocs))
		case 256:
			new256 = append(new256, ms(out.steps[stepNew]))
		}
		pr.layer["sim.allocs"] += float64(out.runAllocs)
		addRunCounts(pr.counts, out)
	}
	pr.wall = time.Since(start).Seconds()
	pr.setup = (steps[stepNew] + steps[stepWsrt] + steps[stepSetup]).Seconds()
	pr.cycles = pr.counts["sim_cycles"]
	if rec == nil {
		return pr
	}

	self := rec.selfTimes(mark)
	pr.layer["machine.new_s"] = self["machine.New"]
	pr.layer["wsrt.new_s"] = self["wsrt.New"]
	pr.layer["apps.setup_s"] = self["app.Setup"]
	pr.layer["sim.run_s"] = self["rt.Run"]
	pr.layer["apps.verify_s"] = self["Verify"]
	pr.layer["stats.collect_s"] = self["stats.Collect"]
	pr.layer["cilkview.s"] = self["cilkview"]
	pr.layer["machine.new_ms"] = median(new64)
	pr.layer["machine.new_ms_256"] = median(new256)
	pr.layer["machine.new_allocs"] = median(allocs64)
	return pr
}

// addRunCounts adds one simulation's deterministic counts.
func addRunCounts(c map[string]float64, out cellOut) {
	r := out.run
	c["sim_cycles"] += float64(r.Cycles)
	c["sim.events"] += float64(out.events)
	c["sim.fast_waits"] += float64(out.fastWaits)
	c["wsrt.spawns"] += float64(r.RT.Spawns)
	c["wsrt.steal_tries"] += float64(r.RT.StealTries)
	c["wsrt.steal_hits"] += float64(r.RT.StealHits)
	if r.ULI != nil {
		c["uli.reqs"] += float64(r.ULI.Reqs)
		c["uli.nacks"] += float64(r.ULI.Nacks)
		c["uli.drops"] += float64(r.ULI.Drops)
	}
	c["cache.l1_accesses"] += float64(r.L1Tiny.Accesses() + r.L1Big.Accesses())
	c["cache.l1_tiny_accesses"] += float64(r.L1Tiny.Accesses())
	c["cache.l1_tiny_hits"] += float64(r.L1Tiny.Hits())
	c["cache.l2_misses"] += float64(r.L2.Misses)
	c["cache.l2_recalls"] += float64(r.L2.Recalls)
	c["cache.inv_lines"] += float64(r.L1Tiny.InvLines + r.L1Big.InvLines)
	c["cache.flush_lines"] += float64(r.L1Tiny.FlushLines + r.L1Big.FlushLines)
	c["noc.bytes"] += float64(r.Traffic.TotalBytes())
	c["noc.hops_sum"] += float64(out.hopsSum)
	c["noc.sends"] += float64(out.sends)
	c["dram.reads"] += float64(r.DRAMReads)
	c["fault.total"] += float64(r.FaultTotal)
}
