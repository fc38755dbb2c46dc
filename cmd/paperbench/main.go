// Command paperbench regenerates the paper's tables and figures.
//
// Usage:
//
//	paperbench [-size test|ref|big] [-apps a,b,c] [-j N] [-faults s1,s2]
//	           [-fault-seed N] [-deadline cycles] [-cpuprofile f]
//	           [-memprofile f] [-bench-history f] [-v] [targets...]
//	paperbench serve [simd flags]
//	paperbench bench-check [-gates f] [-iterations N] [-confidence c]
//	           [-bench-history f] [-check-json f] [-update-baseline] [-v]
//	paperbench bench-plot [-bench-history f] [-o docs/bench.html]
//
// Targets: table3 table4 table5 fig4 fig5 fig6 fig7 fig8 uli energy
// chaos open bench all (default: all except table5, which simulates a
// 256-core system and is the most expensive target, and chaos/open,
// which are robustness sweeps rather than paper artifacts). The chaos
// target runs every selected app under each fault-injection scenario
// on a small DTS machine and checks the outputs still match the serial
// reference; it always uses test-size inputs regardless of -size. The
// open target sweeps open-system serving load (seeded arrivals, latency
// percentiles, shedding) across coherence configs with and without
// fault injection; -open-json exports the cells. The bench target
// measures host throughput (simulated cycles/sec, kernel events/sec,
// allocs/event) and appends a per-commit entry to the cumulative
// -bench-history trajectory (see EXPERIMENTS.md "Profiling and
// benchmarking"), with a one-line hint when the new numbers slipped
// enough that the regression gate would likely flag them.
//
// The bench-check subcommand is the perf-regression gate: it
// re-measures every series the -gates worklist declares (N iterations
// each), compares the median's confidence interval against the
// baseline recorded in the BENCH.json trajectory, prints a per-series
// verdict table (ok / regressed / improved / too-noisy / no-baseline),
// and exits non-zero iff a series significantly regressed past its
// threshold. Intentional changes are blessed with -update-baseline
// (see EXPERIMENTS.md "Regression gating").
//
// The bench-plot subcommand renders the BENCH.json trajectory as a
// self-contained static HTML page (inline SVG, no scripts or external
// assets) so the perf history is browsable from the repo.
//
// The 143 simulations behind the full evaluation are independent, so
// paperbench fans them out over -j host workers (default: all host
// cores) before rendering; tables and figures are always rendered
// serially from the warmed cache, so the output is byte-identical at
// any -j. Each simulation runs on one event kernel; -j is the only
// host-parallelism knob.
//
// The serve subcommand runs the same daemon as cmd/simd (see that
// command and EXPERIMENTS.md "Running the service").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/fault"
	"bigtiny/internal/serve"
	"bigtiny/internal/sim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serve.Main("paperbench serve", os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "bench-check" {
		os.Exit(benchCheck(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "bench-plot" {
		os.Exit(benchPlot(os.Args[2:]))
	}
	os.Exit(run())
}

// benchCheck is the perf-regression gate: re-measure every series the
// gates worklist declares, compare each against its BENCH.json
// trajectory baseline with a median-CI significance test, and exit
// non-zero iff something significantly regressed (see EXPERIMENTS.md
// "Regression gating").
func benchCheck(args []string) int {
	fs := flag.NewFlagSet("paperbench bench-check", flag.ContinueOnError)
	gatesPath := fs.String("gates", "bench/gates.toml", "gates worklist (bent-style TOML; see EXPERIMENTS.md)")
	iterations := fs.Int("iterations", bench.DefaultCheckIterations,
		"samples per gated series (a gate's own iterations key wins)")
	confidence := fs.Float64("confidence", bench.DefaultCheckConfidence, "median confidence-interval level")
	history := fs.String("bench-history", "BENCH.json", "trajectory file holding the baselines")
	checkJSON := fs.String("check-json", "", "also write the machine-readable verdict report to this file")
	update := fs.Bool("update-baseline", false,
		"bless the fresh medians as the new baselines (verdicts still report against the old ones)")
	hostGates := fs.Bool("host-gates", false,
		"also check gates marked host = true (per-host wall-clock baselines; PAPERBENCH_HOST_GATES=1 is equivalent)")
	verbose := fs.Bool("v", false, "print per-iteration progress")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "paperbench bench-check: unexpected arguments %q\n", fs.Args())
		return 2
	}
	gates, err := bench.LoadGates(*gatesPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench bench-check:", err)
		return 2
	}
	opts := bench.CheckOptions{
		Iterations:     *iterations,
		Confidence:     *confidence,
		UpdateBaseline: *update,
		IncludeHost:    *hostGates || os.Getenv("PAPERBENCH_HOST_GATES") == "1",
		Commit:         gitCommit(),
	}
	if *verbose {
		opts.Progress = os.Stderr
	}
	rep, err := bench.BenchCheck(os.Stdout, gates, *history, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench bench-check:", err)
		return 1
	}
	if *checkJSON != "" {
		if err := bench.WriteCheckJSON(*checkJSON, rep); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench bench-check:", err)
			return 1
		}
	}
	if rep.Failed() {
		return 1
	}
	return 0
}

// benchPlot renders the BENCH.json trajectory to a static,
// self-contained HTML page (inline SVG charts, no scripts).
func benchPlot(args []string) int {
	fs := flag.NewFlagSet("paperbench bench-plot", flag.ContinueOnError)
	history := fs.String("bench-history", "BENCH.json", "trajectory file to render")
	out := fs.String("o", "docs/bench.html", "output HTML file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "paperbench bench-plot: unexpected arguments %q\n", fs.Args())
		return 2
	}
	traj, err := bench.LoadTrajectory(*history)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench bench-plot:", err)
		return 1
	}
	if err := bench.WriteTrajectoryHTML(*out, traj, *history); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench bench-plot:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)
	return 0
}

func run() int {
	size := flag.String("size", "ref", "input size: test, ref, or big")
	appList := flag.String("apps", "", "comma-separated app subset (default: all 13)")
	jobs := flag.Int("j", 0, "host workers for the simulation fan-out (0 = all host cores, 1 = serial)")
	verbose := flag.Bool("v", false, "print per-run progress")
	noVerify := flag.Bool("no-verify", false, "skip output verification after each run")
	jsonOut := flag.String("json", "", "also dump all collected metrics as JSON to this file")
	faultList := flag.String("faults", "",
		"comma-separated fault scenarios for the chaos target (default: the built-in sweep set)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection RNG seed for the chaos target")
	deadline := flag.Uint64("deadline", 0,
		"per-run simulated-cycle deadline; a run past it fails with a machine-state dump (0 = each config's watchdog default)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	benchHistory := flag.String("bench-history", "BENCH.json",
		"cumulative per-commit trajectory file the bench target appends to (empty = print only)")
	openJSON := flag.String("open-json", "",
		"also dump the open target's sweep results as JSON to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
			}
			f.Close()
		}()
	}

	// Reject a bad -j before any simulation work, same fail-fast policy
	// as -faults below: a typo must not silently run on all cores.
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "paperbench: -j %d: host worker count must be at least 0 (0 = all host cores)\n", *jobs)
		return 2
	}

	var chaosScenarios []string
	if *faultList != "" {
		chaosScenarios = strings.Split(*faultList, ",")
		for _, sc := range chaosScenarios {
			if _, err := fault.Lookup(sc); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				return 2
			}
		}
	}

	sz, err := apps.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		return 2
	}

	names := bench.AppNames()
	if *appList != "" {
		names = strings.Split(*appList, ",")
		for _, n := range names {
			if _, err := apps.ByName(n); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				return 2
			}
		}
	}

	targets := flag.Args()
	for _, t := range targets {
		if strings.HasPrefix(t, "-") {
			fmt.Fprintf(os.Stderr, "paperbench: flag %q given after targets; flags must precede targets\n", t)
			return 2
		}
	}
	if len(targets) == 0 {
		targets = []string{"table3", "table4", "fig4", "fig5", "fig6", "fig7", "fig8", "uli", "energy"}
	}
	if len(targets) == 1 && targets[0] == "all" {
		targets = []string{"table3", "table4", "table5", "fig4", "fig5", "fig6", "fig7", "fig8", "uli", "energy"}
	}

	// -faults and -fault-seed only affect the chaos target; flag them
	// loudly when they would otherwise be silently ignored.
	chaosSelected, openSelected := false, false
	for _, t := range targets {
		if t == "chaos" {
			chaosSelected = true
		}
		if t == "open" {
			openSelected = true
		}
	}
	if *openJSON != "" && !openSelected {
		fmt.Fprintln(os.Stderr, "paperbench: warning: -open-json only affects the open target, which is not selected; ignoring it")
	}
	if !chaosSelected {
		if *faultList != "" {
			fmt.Fprintln(os.Stderr, "paperbench: warning: -faults only affects the chaos target, which is not selected; ignoring it")
		}
		if *faultSeed != 1 {
			fmt.Fprintln(os.Stderr, "paperbench: warning: -fault-seed only affects the chaos target, which is not selected; ignoring it")
		}
	}

	s := bench.NewSuite(sz)
	s.Verify = !*noVerify
	s.Deadline = sim.Time(*deadline)
	if *verbose {
		s.Progress = os.Stderr
	}

	// Collect every selected target's worklist and warm the suite's
	// caches over the host worker pool; the render loop below then
	// draws from the cache in fixed order. Prewarm errors are not fatal
	// here — the owning target re-encounters them serially and reports
	// them with its usual context. (The bench target has no worklist:
	// it measures its own strictly-serial pass on a private suite.)
	var work []bench.Work
	for _, t := range targets {
		if wl, ok := s.TargetWork(t, names); ok {
			work = append(work, wl...)
		}
	}
	if err := s.Prewarm(work, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench: warning:", err)
	}

	out := os.Stdout
	for _, t := range targets {
		var err error
		switch t {
		case "table3":
			err = s.Table3(out, names)
		case "table4":
			err = s.Table4(out, names)
		case "table5":
			err = s.Table5(out)
		case "fig4":
			err = s.Fig4(out, nil)
		case "fig5":
			err = s.Fig5(out, names)
		case "fig6":
			err = s.Fig6(out, names)
		case "fig7":
			err = s.Fig7(out, names)
		case "fig8":
			err = s.Fig8(out, names)
		case "uli":
			err = s.ULIReport(out, names)
		case "energy":
			err = s.EnergyReport(out, names)
		case "chaos":
			err = bench.Chaos(out, names, chaosScenarios, *faultSeed, *jobs)
		case "open":
			err = s.Open(out, bench.DefaultOpenSweep(sz))
		case "bench":
			var progress io.Writer
			if *verbose {
				progress = os.Stderr
			}
			err = bench.HostBench(out, sz, names, *benchHistory, gitCommit(), progress)
		default:
			err = fmt.Errorf("unknown target %q", t)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		fmt.Fprintln(out)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := s.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
	}
	if *openJSON != "" && openSelected {
		f, err := os.Create(*openJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := s.WriteOpenJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
	}
	return 0
}

// gitCommit identifies HEAD for the benchmark trajectory, best-effort:
// outside a git checkout (or without git on PATH) the entry is still
// recorded, just unattributed with ID "unknown" — the trajectory never
// dedups on that ID, so successive unattributed runs accumulate
// instead of silently replacing each other.
func gitCommit() bench.BenchCommit {
	out, err := exec.Command("git", "log", "-1", "--format=%H%n%s%n%cI").Output()
	if err != nil {
		return bench.BenchCommit{ID: "unknown", Message: "unknown", Timestamp: ""}
	}
	lines := strings.SplitN(strings.TrimRight(string(out), "\n"), "\n", 3)
	c := bench.BenchCommit{ID: "unknown", Message: "unknown"}
	if len(lines) > 0 && lines[0] != "" {
		c.ID = lines[0]
	}
	if len(lines) > 1 {
		c.Message = lines[1]
	}
	if len(lines) > 2 {
		c.Timestamp = lines[2]
	}
	return c
}
