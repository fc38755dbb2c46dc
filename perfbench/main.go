// Command perfbench is the repository's benchmark. One run measures one
// named workload for a fixed time, checks that every output is correct,
// and prints its metrics as the last line of standard output:
//
//	perfbench --workload paper-ref --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced passes;
// --trace 1 alternates untraced and traced passes and reports the
// per-layer metrics. run.sh builds and runs it from a checkout; see
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"bigtiny/internal/apps"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_cycles_per_s", "cycles/s", "higher"},
	{"sim_cycles", "cycles", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p99_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
}

// perLayer are the metrics a --trace 1 run reports. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"machine.new_ms", "ms", "lower"},
	{"machine.new_ms_256", "ms", "lower"},
	{"machine.new_allocs", "count", "lower"},
	{"machine.share", "ratio", "lower"},
	{"wsrt.new_s", "s", "lower"},
	{"apps.setup_s", "s", "lower"},
	{"apps.verify_s", "s", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.fast_waits", "count", "higher"},
	{"sim.fast_wait_ratio", "ratio", "higher"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.allocs_per_event", "count", "lower"},
	{"stats.collect_s", "s", "lower"},
	{"cilkview.s", "s", "lower"},
	{"wsrt.spawns", "count", "lower"},
	{"wsrt.steal_tries", "count", "lower"},
	{"wsrt.steal_hit_ratio", "ratio", "higher"},
	{"uli.reqs", "count", "lower"},
	{"uli.nack_ratio", "ratio", "lower"},
	{"uli.drops", "count", "lower"},
	{"cache.l1_accesses", "count", "lower"},
	{"cache.l1_tiny_hit_rate", "ratio", "higher"},
	{"cache.l2_misses", "count", "lower"},
	{"cache.l2_recalls", "count", "lower"},
	{"cache.inv_lines", "count", "lower"},
	{"cache.flush_lines", "count", "lower"},
	{"noc.bytes", "B", "lower"},
	{"noc.avg_hops", "hops", "lower"},
	{"dram.reads", "count", "lower"},
	{"serve.ran_p50_ms", "ms", "lower"},
	{"serve.store_p50_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.failed", "count", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"store.puts", "count", "lower"},
	{"store.errors", "count", "lower"},
	{"fault.total", "count", "lower"},
	{"prof.sim", "share", "lower"},
	{"prof.cpu", "share", "lower"},
	{"prof.cache", "share", "lower"},
	{"prof.noc", "share", "lower"},
	{"prof.uli", "share", "lower"},
	{"prof.wsrt", "share", "lower"},
	{"prof.mem", "share", "lower"},
	{"prof.machine", "share", "lower"},
	{"prof.apps", "share", "lower"},
	{"prof.runtime", "share", "lower"},
	{"prof.gc", "share", "lower"},
	{"prof.other", "share", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"paper-ref", "table3-test", "simd-mix"}

// workload runs one pass over its inputs; a nil recorder means an
// untraced pass.
type workload interface {
	pass(rec *recorder) *passResult
}

// passResult is what one pass measured.
type passResult struct {
	wall   float64 // seconds the pass's operations took
	setup  float64 // seconds of set-up (README.md, setup_s)
	mem    float64 // peak resident memory of the runtime, MiB
	cycles float64 // simulated cycles the pass produced
	ops    int     // operations attempted
	failed int
	errs   []string
	lat    []float64            // per-operation latency, ms
	latBy  map[string][]float64 // simd-mix latency by X-Simd-Result
	counts map[string]float64   // deterministic counts: must repeat exactly
	layer  map[string]float64   // per-layer measurements
}

func newPassResult() *passResult {
	return &passResult{
		latBy:  make(map[string][]float64),
		counts: make(map[string]float64),
		layer:  make(map[string]float64),
	}
}

func (p *passResult) fail(msg string) {
	p.failed++
	p.errs = append(p.errs, msg)
}

// newWorkload builds the named workload. paper-ref and table3-test are
// fixed worklists, run in a fixed order; the seed generates the simd-mix
// request stream. smoke shrinks every input so the whole check runs in
// seconds.
func newWorkload(name string, seed uint64, smoke bool, workdir string) (workload, error) {
	switch name {
	case "paper-ref":
		w := &cellsWorkload{cells: paperRefCells(), size: apps.Ref}
		if smoke {
			w.size = apps.Test
		}
		return w, nil
	case "table3-test":
		appNames := allApps()
		if smoke {
			appNames = appNames[:2]
		}
		return &cellsWorkload{cells: table3Cells(appNames), size: apps.Test}, nil
	case "simd-mix":
		scale := 1.0
		if smoke {
			scale = 0.05
		}
		return newSimdWorkload(seed, scale, workdir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-ref, table3-test or simd-mix")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced passes")
	workdir := fs.String("workdir", ".bench_build", "directory for span dumps and store directories")
	smoke := fs.Bool("smoke", false, "shrink every input (quick self-check)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*name, *seed, *smoke, *workdir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	traced := *trace == 1
	var rec *recorder
	var prof *profiler
	if traced {
		rec, prof = newRecorder(), newProfiler()
	}
	plain, withTrace, err := measure(w, *seconds, rec, prof, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := summarize(plain, withTrace, prof, stderr)
	if rec != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	info := map[string]any{
		"workload": *name, "seed": *seed, "trace": *trace, "smoke": *smoke,
		"passes": len(plain) + len(withTrace),
		"host": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		},
	}
	for _, out := range []any{info, res} {
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// minPasses is the fewest passes a run makes, whatever --seconds says,
// so every median has at least three samples; minTracedPasses is the
// fewest of each kind a traced run makes.
const (
	minPasses       = 3
	minTracedPasses = 2
)

// measure runs passes until the next one would overrun seconds. With a
// recorder it alternates untraced and traced passes, profiling the
// traced ones.
func measure(w workload, seconds float64, rec *recorder, prof *profiler, stderr io.Writer) (plain, traced []*passResult, err error) {
	start := time.Now()
	logPass := func(pr *passResult, kind string) {
		fmt.Fprintf(stderr, "perfbench: %s pass %d: wall %.4fs setup %.6fs mem %.1fMiB job p50 %.4fms p99 %.4fms ops %d failed %d\n",
			kind, len(plain)+len(traced), pr.wall, pr.setup, pr.mem, quantile(pr.lat, 0.5), quantile(pr.lat, 0.99), pr.ops, pr.failed)
	}
	var walls []float64
	for {
		enough := len(plain) >= minPasses
		if rec != nil {
			enough = min(len(plain), len(traced)) >= minTracedPasses
		}
		if enough && time.Since(start).Seconds()+median(walls) > seconds {
			return plain, traced, nil
		}
		// Every pass starts from a freshly collected heap.
		runtime.GC()
		if rec != nil && len(plain) > len(traced) {
			if err := prof.start(); err != nil {
				return nil, nil, err
			}
			mem := startMemSampler()
			pr := w.pass(rec)
			pr.mem = mem.peakMB()
			if err := prof.stop(); err != nil {
				return nil, nil, err
			}
			traced = append(traced, pr)
			logPass(pr, "traced")
			walls = append(walls, pr.wall)
			continue
		}
		mem := startMemSampler()
		pr := w.pass(nil)
		pr.mem = mem.peakMB()
		plain = append(plain, pr)
		logPass(pr, "untraced")
		walls = append(walls, pr.wall)
	}
}

// summarize checks the passes and turns them into the run's result:
// end-to-end metrics from the untraced passes, or per-layer metrics
// from the traced ones when there are any.
func summarize(plain, traced []*passResult, prof *profiler, stderr io.Writer) runResult {
	all := append(append([]*passResult(nil), plain...), traced...)
	res := runResult{Correct: true}
	for _, p := range all {
		res.Attempted += p.ops
		res.Failed += p.failed
		for i, e := range p.errs {
			if i == 3 {
				fmt.Fprintf(stderr, "perfbench: ... %d more failures\n", len(p.errs)-i)
				break
			}
			fmt.Fprintln(stderr, "perfbench: FAIL", e)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	// Deterministic counts must repeat exactly across passes, traced or
	// not.
	for _, p := range all[1:] {
		if key, ok := sameCounts(all[0].counts, p.counts); !ok {
			fmt.Fprintf(stderr, "perfbench: FAIL count %s differs between passes: %v vs %v\n",
				key, all[0].counts[key], p.counts[key])
			res.Correct = false
		}
	}

	if len(traced) == 0 {
		res.Metrics = endToEndMetrics(plain)
	} else {
		res.Metrics = perLayerMetrics(plain, traced, prof)
	}
	return res
}

// sameCounts reports whether a and b hold the same counts, and the
// first key (in sorted order) where they differ.
func sameCounts(a, b map[string]float64) (string, bool) {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		av, aok := a[k]
		bv, bok := b[k]
		if aok != bok || av != bv {
			return k, false
		}
	}
	return "", true
}

func endToEndMetrics(passes []*passResult) map[string]metric {
	var walls, setups, mems, cps, jps, p50s, p99s []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		mems = append(mems, p.mem)
		setups = append(setups, p.setup)
		cps = append(cps, p.cycles/p.wall)
		jps = append(jps, float64(p.ops)/p.wall)
		p50s = append(p50s, quantile(p.lat, 0.50))
		p99s = append(p99s, quantile(p.lat, 0.99))
	}
	v := map[string]float64{
		"wall_s":           median(walls),
		"setup_s":          median(setups),
		"sim_cycles_per_s": median(cps),
		"sim_cycles":       passes[0].cycles,
		"peak_rss_mb":      median(mems),
		"job_p50_ms":       median(p50s),
		"job_p99_ms":       median(p99s),
		"jobs_per_s":       median(jps),
	}
	return toMetrics(endToEnd, v)
}

func perLayerMetrics(plain, traced []*passResult, prof *profiler) map[string]metric {
	per := make(map[string][]float64)
	var plainWalls, tracedWalls []float64
	latBy := make(map[string][]float64)
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall)
	}
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall)
		for src, l := range p.latBy {
			latBy[src] = append(latBy[src], l...)
		}
		c, l := p.counts, p.layer
		d := map[string]float64{
			"machine.share":          ratio(l["machine.new_s"], p.wall),
			"sim.fast_wait_ratio":    ratio(c["sim.fast_waits"], c["sim.fast_waits"]+c["sim.events"]),
			"sim.ns_per_event":       ratio(l["sim.run_s"]*1e9, c["sim.events"]),
			"sim.allocs_per_event":   ratio(l["sim.allocs"], c["sim.events"]),
			"wsrt.steal_hit_ratio":   ratio(c["wsrt.steal_hits"], c["wsrt.steal_tries"]),
			"uli.nack_ratio":         ratio(c["uli.nacks"], c["uli.reqs"]),
			"cache.l1_tiny_hit_rate": ratio(c["cache.l1_tiny_hits"], c["cache.l1_tiny_accesses"]),
			"noc.avg_hops":           ratio(c["noc.hops_sum"], c["noc.sends"]),
		}
		for _, m := range []map[string]float64{c, l, d} {
			for k, x := range m {
				per[k] = append(per[k], x)
			}
		}
	}
	v := make(map[string]float64, len(per))
	for k, xs := range per {
		v[k] = median(xs)
	}
	v["serve.ran_p50_ms"] = quantile(latBy["ran"], 0.5)
	v["serve.store_p50_ms"] = quantile(latBy["store"], 0.5)
	v["trace.overhead_s"] = median(tracedWalls) - median(plainWalls)
	for g, share := range prof.shares() {
		v["prof."+g] = share
	}
	return toMetrics(perLayer, v)
}

// toMetrics picks defs out of values (0 for a metric the workload does
// not produce).
func toMetrics(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x := values[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle value of xs (mean of the two middle values
// for an even count; 0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	return s[max(rank, 1)-1]
}
