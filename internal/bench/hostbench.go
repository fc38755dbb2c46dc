package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/sim"
)

// This file is the host-performance measurement rig behind `paperbench
// bench` (and `make bench`). It measures how fast the simulator runs
// on the host — simulated cycles per host second, kernel events per
// second, host allocations per event — and appends the numbers to the
// BENCH.json trajectory so the repo carries one perf record from commit
// to commit. Simulated results are bit-identical no matter how fast the host
// path is; this rig only watches the host side.

// KernelBench is the kernel microbenchmark: a single proc scheduling
// and firing events through a ~1k-deep queue (the BenchmarkSchedule
// shape from internal/sim, run without the testing harness so
// paperbench can embed it).
type KernelBench struct {
	Events         uint64  `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// SuiteBench is the end-to-end measurement: the full table3 simulation
// worklist run serially (the -j1 paperbench table3 workload).
type SuiteBench struct {
	WallSec         float64 `json:"wall_sec"`
	SimCycles       uint64  `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	EventsFired     uint64  `json:"events_fired"`
	EventsPerSec    float64 `json:"events_per_sec"`
	FastWaits       uint64  `json:"fast_waits"`
	AllocsPerEvent  float64 `json:"allocs_per_event"`
}

// HostBenchReport is one measurement of the current binary.
type HostBenchReport struct {
	Date         string      `json:"date"`
	GoVersion    string      `json:"go_version"`
	HostCPUs     int         `json:"host_cpus"`
	Size         string      `json:"size"`
	Kernel       KernelBench `json:"kernel"`
	Table3Serial SuiteBench  `json:"table3_serial"`
}

// benchKernel runs the kernel microbenchmark: n schedule+fire pairs
// against a queue pre-filled to depth, measuring wall time and host
// allocations around the run.
func benchKernel(n int) KernelBench {
	k := sim.NewKernel()
	const depth = 1024
	fn := func() {}
	for i := 0; i < depth; i++ {
		k.At(sim.Time(i+1), fn)
	}
	fired := 0
	cb := func() { fired++ }
	k.NewProc("driver", 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			k.At(k.Now()+depth, cb)
			p.Delay(1)
		}
	})
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := k.Run(nil); err != nil {
		panic(err) // a broken microbenchmark is a simulator bug
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	events := k.Fired()
	return KernelBench{
		Events:         events,
		NsPerEvent:     float64(wall.Nanoseconds()) / float64(events),
		EventsPerSec:   float64(events) / wall.Seconds(),
		AllocsPerEvent: float64(m1.Mallocs-m0.Mallocs) / float64(events),
	}
}

// benchSuite runs the table3 simulation worklist strictly serially
// (the `paperbench -j 1 table3` workload) on a fresh suite and
// measures host throughput. Simulated results are the usual
// bit-identical ones; only wall time and allocation counts vary by
// host. hook is the suite's SimHook (test injection; nil outside the
// gate tests), and a fresh suite per call means repeated iterations
// re-simulate instead of reading a warm cache.
func benchSuite(size apps.Size, names []string, hook func(cfgName, appName string), progress io.Writer) (SuiteBench, error) {
	s := NewSuite(size)
	s.Progress = progress
	s.SimHook = hook
	work := s.Table3Work(names)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var simCycles uint64
	seen := make(map[string]bool, len(work))
	for _, w := range work {
		if k := w.key(); seen[k] {
			continue
		} else {
			seen[k] = true
		}
		sub := s.at(w.Size, w.Grain)
		if w.View {
			if _, err := sub.View(w.App); err != nil {
				return SuiteBench{}, err
			}
			continue
		}
		r, err := sub.Run(w.Cfg, w.App)
		if err != nil {
			return SuiteBench{}, err
		}
		simCycles += uint64(r.Cycles)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	_, fired, fastWaits := s.HostCounters()
	b := SuiteBench{
		WallSec:     wall.Seconds(),
		SimCycles:   simCycles,
		EventsFired: fired,
		FastWaits:   fastWaits,
	}
	if secs := wall.Seconds(); secs > 0 {
		b.SimCyclesPerSec = float64(simCycles) / secs
		b.EventsPerSec = float64(fired) / secs
	}
	if fired > 0 {
		b.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(fired)
	}
	return b, nil
}

// cellSample is one iteration's measurement of a single gated
// (config, app, size, grain) cell.
type cellSample struct {
	WallSec   float64
	SimCycles uint64
}

// benchCell measures one simulation of app on cfg at size/grain. Each
// call builds a fresh suite, so repeated iterations genuinely
// re-simulate — the gate's variance estimate would be meaningless over
// cache hits. Simulated cycles are deterministic; only the wall time
// varies by host.
func benchCell(size apps.Size, grain int, cfg, app string, hook func(cfgName, appName string), progress io.Writer) (cellSample, error) {
	s := NewSuite(size)
	s.Grain = grain
	s.Progress = progress
	s.SimHook = hook
	t0 := time.Now()
	r, err := s.Run(cfg, app)
	if err != nil {
		return cellSample{}, err
	}
	return cellSample{WallSec: time.Since(t0).Seconds(), SimCycles: uint64(r.Cycles)}, nil
}

// hostSeriesLowerIsBetter gives the improvement direction of each
// host-throughput trajectory series (trajectoryBenches names).
var hostSeriesLowerIsBetter = map[string]bool{
	"kernel ns/event":       true,
	"kernel allocs/event":   true,
	"table3 serial wall":    true,
	"table3 sim-cycles/sec": false,
	"table3 events/sec":     false,
	"table3 allocs/event":   true,
}

// benchHintThreshold is the relative slip past which `paperbench
// bench` warns that bench-check would likely flag the measurement.
const benchHintThreshold = 0.10

// benchHint compares a fresh report against the newest host-throughput
// trajectory entry and returns a one-line heads-up naming every series
// that slipped more than benchHintThreshold in its worse direction
// ("" when none did). It is a point comparison — only the full
// bench-check gate re-measures with confidence intervals — so it is
// worded as a hint, not a verdict.
func benchHint(traj *TrajectoryFile, rep *HostBenchReport) string {
	entries := traj.Entries[trajectorySuite]
	if len(entries) == 0 {
		return ""
	}
	prev := map[string]float64{}
	for _, b := range entries[len(entries)-1].Benches {
		prev[b.Name] = b.Value
	}
	var slipped []string
	for _, b := range trajectoryBenches(rep) {
		base, ok := prev[b.Name]
		if !ok || base <= 0 {
			continue
		}
		delta := (b.Value - base) / base
		if !hostSeriesLowerIsBetter[b.Name] {
			delta = -delta
		}
		if delta > benchHintThreshold {
			slipped = append(slipped, fmt.Sprintf("%s %+.1f%%", b.Name, 100*(b.Value-base)/base))
		}
	}
	if len(slipped) == 0 {
		return ""
	}
	return fmt.Sprintf("hint: %s worsened >%.0f%% vs the last trajectory entry — a gated run may fail; see `paperbench bench-check`\n",
		strings.Join(slipped, ", "), 100*benchHintThreshold)
}

// HostBench measures the current binary (kernel microbenchmark plus
// the serial table3 workload at size) and prints a summary to w. When
// historyPath is non-empty the measurement is appended as a per-commit
// entry to the cumulative trajectory file there (see AppendTrajectory),
// after a one-line hint if the new numbers slipped enough that the
// regression gate would likely flag them.
func HostBench(w io.Writer, size apps.Size, names []string, historyPath string, commit BenchCommit, progress io.Writer) error {
	rep := &HostBenchReport{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		HostCPUs:  runtime.NumCPU(),
		Size:      size.String(),
	}
	rep.Kernel = benchKernel(2_000_000)
	var err error
	rep.Table3Serial, err = benchSuite(size, names, nil, progress)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}

	if historyPath != "" {
		traj, err := LoadTrajectory(historyPath)
		if err != nil {
			return err
		}
		if hint := benchHint(traj, rep); hint != "" {
			fmt.Fprint(w, hint)
		}
		if err := AppendTrajectory(historyPath, rep, commit, time.Now()); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "kernel:  %.0f events/s, %.1f ns/event, %.3f allocs/event\n",
		rep.Kernel.EventsPerSec, rep.Kernel.NsPerEvent, rep.Kernel.AllocsPerEvent)
	fmt.Fprintf(w, "table3 (serial, size=%s): %.1fs wall, %.2fM sim-cycles/s, %.2fM events/s, %.3f allocs/event\n",
		size, rep.Table3Serial.WallSec,
		rep.Table3Serial.SimCyclesPerSec/1e6, rep.Table3Serial.EventsPerSec/1e6,
		rep.Table3Serial.AllocsPerEvent)
	if historyPath != "" {
		fmt.Fprintf(w, "appended trajectory entry to %s\n", historyPath)
	}
	return nil
}
