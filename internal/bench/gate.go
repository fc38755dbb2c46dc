package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/atomicio"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/stats"
)

// This file is the regression gate behind `paperbench bench-check`
// (and the `make bench-check` / `bench-check-smoke` ci targets): a
// declarative worklist of perf-gated series — kernel microbenchmark
// metrics, table3 suite metrics, and single (config, app, size) cells
// — each with its own regression threshold. The checker re-measures
// every gated series N times, summarizes with stats.Summary, and
// compares the median's confidence interval against the baseline
// recorded in the BENCH.json trajectory: a regression verdict requires
// the whole interval past the threshold, so noise is reported as
// too-noisy instead of failing ci, and an intentional change is
// blessed by refreshing the baseline with -update-baseline.

// Gate names one perf-gated series.
type Gate struct {
	// Kind selects what is measured: "kernel" (the event-loop
	// microbenchmark), "table3" (the serial table3 worklist), "cell"
	// (one simulation of App on Config), or "open" (one open-system
	// serving cell from the stock DefaultOpenSweep grid).
	Kind string
	// Config and App identify a cell gate's simulation. Config also
	// names the machine of an open gate (App is unused there — the
	// sweep's workload is fixed).
	Config string
	App    string
	// Scenario is an open gate's fault scenario ("" = fault-free); it
	// must name a registered fault scenario.
	Scenario string
	// Rate is an open gate's offered load, requests per 1000 cycles.
	Rate float64
	// Apps restricts a table3 gate's worklist (empty = all 13 apps).
	Apps []string
	// Size is the input size for table3/cell gates.
	Size apps.Size
	// Grain overrides the cell's task granularity (0 = app default).
	Grain int
	// Host marks a wall-clock gate whose baseline only holds on the
	// host that blessed it; bench-check skips these unless the caller
	// opts in (paperbench: -host-gates or PAPERBENCH_HOST_GATES=1).
	Host bool
	// Metric names the gated number; see gateMetrics for the per-kind
	// choices. Deterministic metrics (sim_cycles) have host-independent
	// baselines; wall-clock metrics must be blessed per host.
	Metric string
	// Threshold is the allowed relative change in the worse direction
	// (0.05 = 5%) before the gate fails.
	Threshold float64
	// Iterations overrides the checker's default sample count (0 =
	// checker default).
	Iterations int
}

// gateMetricInfo describes one legal (kind, metric) pair.
type gateMetricInfo struct {
	Unit          string
	LowerIsBetter bool
}

// gateMetrics is the (kind, metric) registry. Extraction lives in the
// measurement switches below; this table is the single source for
// validation, units, and improvement direction.
var gateMetrics = map[string]map[string]gateMetricInfo{
	"kernel": {
		"ns_per_event":     {Unit: "ns/event", LowerIsBetter: true},
		"events_per_sec":   {Unit: "events/s", LowerIsBetter: false},
		"allocs_per_event": {Unit: "allocs/event", LowerIsBetter: true},
	},
	"table3": {
		"wall_sec":           {Unit: "s", LowerIsBetter: true},
		"sim_cycles":         {Unit: "cycles", LowerIsBetter: true},
		"sim_cycles_per_sec": {Unit: "cycles/s", LowerIsBetter: false},
		"events_per_sec":     {Unit: "events/s", LowerIsBetter: false},
		"allocs_per_event":   {Unit: "allocs/event", LowerIsBetter: true},
	},
	"cell": {
		"wall_sec":   {Unit: "s", LowerIsBetter: true},
		"sim_cycles": {Unit: "cycles", LowerIsBetter: true},
	},
	"open": {
		"latency_p99": {Unit: "cycles", LowerIsBetter: true},
		"latency_p50": {Unit: "cycles", LowerIsBetter: true},
		"sim_cycles":  {Unit: "cycles", LowerIsBetter: true},
		"wall_sec":    {Unit: "s", LowerIsBetter: true},
	},
}

// Validate checks the gate names a measurable series (kind, metric,
// threshold, and — for cells — a real config and app).
func (g *Gate) Validate() error {
	metrics, ok := gateMetrics[g.Kind]
	if !ok {
		return fmt.Errorf("gate: unknown kind %q (kernel, table3, cell, or open)", g.Kind)
	}
	if _, ok := metrics[g.Metric]; !ok {
		var names []string
		for m := range metrics {
			names = append(names, m)
		}
		return fmt.Errorf("gate: kind %q has no metric %q (have: %s)", g.Kind, g.Metric, strings.Join(names, ", "))
	}
	if g.Threshold <= 0 {
		return fmt.Errorf("gate %s: threshold must be positive, got %g", g.Series(), g.Threshold)
	}
	if g.Iterations < 0 {
		return fmt.Errorf("gate %s: negative iterations", g.Series())
	}
	if g.Kind == "cell" {
		if _, err := machine.Lookup(g.Config); err != nil {
			return fmt.Errorf("gate %s: %w", g.Series(), err)
		}
		if _, err := apps.ByName(g.App); err != nil {
			return fmt.Errorf("gate %s: %w", g.Series(), err)
		}
	}
	if g.Kind == "open" {
		if _, err := machine.Lookup(g.Config); err != nil {
			return fmt.Errorf("gate %s: %w", g.Series(), err)
		}
		if g.Scenario != "" {
			if _, err := fault.Lookup(g.Scenario); err != nil {
				return fmt.Errorf("gate %s: %w", g.Series(), err)
			}
		}
		if g.Rate <= 0 {
			return fmt.Errorf("gate %s: an open gate needs a positive rate (requests per 1000 cycles)", g.Series())
		}
	}
	for _, a := range g.Apps {
		if _, err := apps.ByName(a); err != nil {
			return fmt.Errorf("gate %s: %w", g.Series(), err)
		}
	}
	return nil
}

// Series is the gate's canonical trajectory series name. It encodes
// everything that identifies the measurement, so a baseline can never
// be compared against a differently-shaped re-measurement; renaming a
// series orphans (and effectively resets) its baseline.
func (g *Gate) Series() string {
	switch g.Kind {
	case "kernel":
		return "gate:kernel:" + g.Metric
	case "table3":
		apps := "all"
		if len(g.Apps) > 0 {
			apps = strings.Join(g.Apps, "+")
		}
		return fmt.Sprintf("gate:table3[%s,%s]:%s", g.Size, apps, g.Metric)
	case "open":
		scen := g.Scenario
		if scen == "" {
			scen = "none"
		}
		return fmt.Sprintf("gate:open[%s]:%s:%s:r%g:%s", g.Size, g.Config, scen, g.Rate, g.Metric)
	default:
		return fmt.Sprintf("gate:cell[%s]:%s:%s:g%d:%s", g.Size, g.Config, g.App, g.Grain, g.Metric)
	}
}

// info returns the gate's metric registry entry (Validate first).
func (g *Gate) info() gateMetricInfo { return gateMetrics[g.Kind][g.Metric] }

// ParseGates reads a bent-style TOML worklist of [[gate]] tables (the
// subset below — string, number, and string-array values — is all the
// format uses):
//
//	[[gate]]
//	kind = "cell"            # kernel | table3 | cell
//	config = "bT/HCC-DTS-gwb"
//	app = "cilk5-cs"
//	size = "test"
//	metric = "sim_cycles"    # see gateMetrics for per-kind choices
//	threshold = 0.05
//	iterations = 2           # optional; 0 = checker default
//
// Unknown keys are errors (a typo must not silently un-gate a series).
// Gates can equally be built in Go: the Makefile path goes through
// this parser, tests usually construct []Gate literals directly.
func ParseGates(r io.Reader) ([]Gate, error) {
	var gates []Gate
	var cur *Gate
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if text == "[[gate]]" {
			gates = append(gates, Gate{})
			cur = &gates[len(gates)-1]
			continue
		}
		if strings.HasPrefix(text, "[") {
			return nil, fmt.Errorf("gates: line %d: only [[gate]] tables are allowed, got %s", line, text)
		}
		if cur == nil {
			return nil, fmt.Errorf("gates: line %d: key outside a [[gate]] table", line)
		}
		key, raw, ok := strings.Cut(text, "=")
		if !ok {
			return nil, fmt.Errorf("gates: line %d: expected key = value, got %q", line, text)
		}
		key = strings.TrimSpace(key)
		raw = strings.TrimSpace(raw)
		if err := setGateKey(cur, key, raw); err != nil {
			return nil, fmt.Errorf("gates: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gates: %w", err)
	}
	for i := range gates {
		if err := gates[i].Validate(); err != nil {
			return nil, err
		}
	}
	if len(gates) == 0 {
		return nil, fmt.Errorf("gates: no [[gate]] tables found")
	}
	return gates, nil
}

// LoadGates reads a gates worklist file (see ParseGates).
func LoadGates(path string) ([]Gate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gates: %w", err)
	}
	defer f.Close()
	gates, err := ParseGates(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return gates, nil
}

// setGateKey assigns one parsed key = value pair.
func setGateKey(g *Gate, key, raw string) error {
	str := func() (string, error) {
		s, err := tomlString(raw)
		if err != nil {
			return "", fmt.Errorf("key %q: %w", key, err)
		}
		return s, nil
	}
	switch key {
	case "kind":
		v, err := str()
		if err != nil {
			return err
		}
		g.Kind = v
	case "config":
		v, err := str()
		if err != nil {
			return err
		}
		g.Config = v
	case "app":
		v, err := str()
		if err != nil {
			return err
		}
		g.App = v
	case "scenario":
		v, err := str()
		if err != nil {
			return err
		}
		g.Scenario = v
	case "rate":
		v, err := strconv.ParseFloat(stripComment(raw), 64)
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		g.Rate = v
	case "metric":
		v, err := str()
		if err != nil {
			return err
		}
		g.Metric = v
	case "size":
		v, err := str()
		if err != nil {
			return err
		}
		sz, err := apps.ParseSize(v)
		if err != nil {
			return err
		}
		g.Size = sz
	case "apps":
		list, err := tomlStringArray(raw)
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		g.Apps = list
	case "threshold":
		v, err := strconv.ParseFloat(stripComment(raw), 64)
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		g.Threshold = v
	case "grain":
		v, err := strconv.Atoi(stripComment(raw))
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		g.Grain = v
	case "iterations":
		v, err := strconv.Atoi(stripComment(raw))
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		g.Iterations = v
	case "host":
		v, err := strconv.ParseBool(stripComment(raw))
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		g.Host = v
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// stripComment drops a trailing "# ..." from an unquoted value.
func stripComment(raw string) string {
	if i := strings.Index(raw, "#"); i >= 0 {
		raw = raw[:i]
	}
	return strings.TrimSpace(raw)
}

// tomlString parses a double-quoted string (no escapes — none of the
// values this format carries need them).
func tomlString(raw string) (string, error) {
	if len(raw) < 2 || raw[0] != '"' {
		return "", fmt.Errorf("expected a quoted string, got %q", raw)
	}
	end := strings.Index(raw[1:], `"`)
	if end < 0 {
		return "", fmt.Errorf("unterminated string %q", raw)
	}
	rest := strings.TrimSpace(raw[end+2:])
	if rest != "" && !strings.HasPrefix(rest, "#") {
		return "", fmt.Errorf("trailing garbage after string: %q", raw)
	}
	return raw[1 : end+1], nil
}

// tomlStringArray parses ["a", "b"]; a bare quoted string is accepted
// as a one-element list.
func tomlStringArray(raw string) ([]string, error) {
	raw = stripTrailingArrayComment(raw)
	if strings.HasPrefix(raw, `"`) {
		s, err := tomlString(raw)
		if err != nil {
			return nil, err
		}
		return []string{s}, nil
	}
	if !strings.HasPrefix(raw, "[") || !strings.HasSuffix(raw, "]") {
		return nil, fmt.Errorf("expected an array of strings, got %q", raw)
	}
	inner := strings.TrimSpace(raw[1 : len(raw)-1])
	if inner == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(inner, ",") {
		s, err := tomlString(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// stripTrailingArrayComment drops a "# ..." that follows the closing
// bracket (comments cannot appear inside the single-line array).
func stripTrailingArrayComment(raw string) string {
	if i := strings.Index(raw, "]"); i >= 0 {
		return strings.TrimSpace(raw[:i+1])
	}
	return strings.TrimSpace(raw)
}

// checkKernelEvents is the kernel microbenchmark length per check
// iteration — shorter than `paperbench bench`'s 2M because the checker
// runs several iterations.
const checkKernelEvents = 1_000_000

// DefaultCheckIterations is the sample count per gated series when
// neither the gate nor the caller overrides it.
const DefaultCheckIterations = 5

// DefaultCheckConfidence is the median-CI confidence the verdicts use.
const DefaultCheckConfidence = 0.95

// VerdictNoBaseline marks a gated series with no trajectory baseline
// yet; it never fails the check (bless one with -update-baseline).
const VerdictNoBaseline = "no-baseline"

// CheckOptions configure BenchCheck. The zero value means: default
// iterations and confidence, no baseline update, no injection.
type CheckOptions struct {
	// Iterations is the default per-gate sample count (0 =
	// DefaultCheckIterations); a gate's own Iterations wins.
	Iterations int
	// Confidence for the median CI (0 = DefaultCheckConfidence).
	Confidence float64
	// UpdateBaseline blesses the fresh medians into the trajectory
	// after the check (verdicts still report against the old baseline,
	// so the run shows exactly what changed).
	UpdateBaseline bool
	// IncludeHost also measures gates marked host = true (wall-clock
	// series whose baselines only hold on the host that blessed them).
	// Off by default so the checked set stays host-portable in ci.
	IncludeHost bool
	// Commit stamps blessed baselines.
	Commit BenchCommit
	// Progress, if non-nil, receives per-iteration progress lines.
	Progress io.Writer
	// SimHook is forwarded to every measuring suite (test injection;
	// see Suite.SimHook). Leave nil outside tests.
	SimHook func(cfgName, appName string)
}

// GateResult is one gated series' verdict.
type GateResult struct {
	Series         string  `json:"series"`
	Unit           string  `json:"unit"`
	LowerIsBetter  bool    `json:"lower_is_better"`
	Threshold      float64 `json:"threshold"`
	Iterations     int     `json:"iterations"`
	Baseline       float64 `json:"baseline,omitempty"`
	BaselineCommit string  `json:"baseline_commit,omitempty"`
	Median         float64 `json:"median"`
	Min            float64 `json:"min"`
	Max            float64 `json:"max"`
	CILo           float64 `json:"ci_lo"`
	CIHi           float64 `json:"ci_hi"`
	CICoverage     float64 `json:"ci_coverage"`
	Delta          float64 `json:"delta"` // (median-baseline)/baseline; 0 without a baseline
	Verdict        string  `json:"verdict"`
}

// CheckReport is the machine-readable bench-check outcome (-check-json).
type CheckReport struct {
	Date             string       `json:"date"`
	Commit           BenchCommit  `json:"commit"`
	Iterations       int          `json:"default_iterations"`
	Confidence       float64      `json:"confidence"`
	Gates            []GateResult `json:"gates"`
	OK               int          `json:"ok"`
	Regressed        int          `json:"regressed"`
	Improved         int          `json:"improved"`
	TooNoisy         int          `json:"too_noisy"`
	NoBaseline       int          `json:"no_baseline"`
	HostSkipped      int          `json:"host_skipped,omitempty"`
	BaselinesUpdated bool         `json:"baselines_updated"`
}

// Failed reports whether the check must fail ci: only a significant
// regression does — too-noisy and missing baselines are reported but
// never fail, so the gate cannot flake on a loaded host.
func (r *CheckReport) Failed() bool { return r.Regressed > 0 }

// measureGate collects one sample of every metric the gate's kind
// exposes, then returns the gated one.
func measureGate(g *Gate, hook func(string, string), progress io.Writer) (float64, error) {
	switch g.Kind {
	case "kernel":
		k := benchKernel(checkKernelEvents)
		switch g.Metric {
		case "ns_per_event":
			return k.NsPerEvent, nil
		case "events_per_sec":
			return k.EventsPerSec, nil
		default:
			return k.AllocsPerEvent, nil
		}
	case "table3":
		names := g.Apps
		if len(names) == 0 {
			names = AppNames()
		}
		b, err := benchSuite(g.Size, names, hook, progress)
		if err != nil {
			return 0, err
		}
		switch g.Metric {
		case "wall_sec":
			return b.WallSec, nil
		case "sim_cycles":
			return float64(b.SimCycles), nil
		case "sim_cycles_per_sec":
			return b.SimCyclesPerSec, nil
		case "events_per_sec":
			return b.EventsPerSec, nil
		default:
			return b.AllocsPerEvent, nil
		}
	case "open":
		// One stock DefaultOpenSweep cell: the same workload, arrival
		// process, request count, and seeds `paperbench open` renders, so
		// the gated latency is a number the experiment tables already
		// carry. A fresh suite per sample keeps iterations honest (the
		// open-cell cache would otherwise return the first measurement).
		sw := DefaultOpenSweep(g.Size)
		s := NewSuite(g.Size)
		s.SimHook = hook
		s.Progress = progress
		t0 := time.Now()
		r, err := s.OpenRun(g.Config, g.Scenario, sw.FaultSeed, sw.spec(g.Rate))
		if err != nil {
			return 0, err
		}
		wall := time.Since(t0).Seconds()
		switch g.Metric {
		case "latency_p99":
			return float64(r.Latency.P99()), nil
		case "latency_p50":
			return float64(r.Latency.P50()), nil
		case "sim_cycles":
			return float64(r.Cycles), nil
		default:
			return wall, nil
		}
	default: // cell
		c, err := benchCell(g.Size, g.Grain, g.Config, g.App, hook, progress)
		if err != nil {
			return 0, err
		}
		if g.Metric == "wall_sec" {
			return c.WallSec, nil
		}
		return float64(c.SimCycles), nil
	}
}

// BenchCheck re-measures every gated series, renders the verdict table
// to w, and — with opts.UpdateBaseline — blesses the fresh medians
// into the trajectory at historyPath. The returned report's Failed()
// decides the exit code; the error is for operational failures only
// (invalid gate, broken simulation, unreadable trajectory).
func BenchCheck(w io.Writer, gates []Gate, historyPath string, opts CheckOptions) (*CheckReport, error) {
	if opts.Iterations <= 0 {
		opts.Iterations = DefaultCheckIterations
	}
	if opts.Confidence <= 0 {
		opts.Confidence = DefaultCheckConfidence
	}
	traj, err := LoadTrajectory(historyPath)
	if err != nil {
		return nil, err
	}
	rep := &CheckReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Commit:     opts.Commit,
		Iterations: opts.Iterations,
		Confidence: opts.Confidence,
	}
	seen := map[string]bool{}
	var blessed []TrajectoryBench
	for i := range gates {
		g := &gates[i]
		if err := g.Validate(); err != nil {
			return nil, err
		}
		series := g.Series()
		if seen[series] {
			return nil, fmt.Errorf("gate %s declared twice", series)
		}
		seen[series] = true
		if g.Host && !opts.IncludeHost {
			rep.HostSkipped++
			continue
		}

		iters := g.Iterations
		if iters <= 0 {
			iters = opts.Iterations
		}
		samples := make([]float64, 0, iters)
		for it := 0; it < iters; it++ {
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "bench-check: %s: iteration %d/%d\n", series, it+1, iters)
			}
			v, err := measureGate(g, opts.SimHook, nil)
			if err != nil {
				return nil, fmt.Errorf("bench-check: %s: %w", series, err)
			}
			samples = append(samples, v)
		}
		sum := stats.NewSummary(samples)
		info := g.info()
		lo, hi, cover := sum.MedianCI(opts.Confidence)
		res := GateResult{
			Series:        series,
			Unit:          info.Unit,
			LowerIsBetter: info.LowerIsBetter,
			Threshold:     g.Threshold,
			Iterations:    iters,
			Median:        sum.Median(),
			Min:           sum.Min(),
			Max:           sum.Max(),
			CILo:          lo,
			CIHi:          hi,
			CICoverage:    cover,
		}
		if base, commit, ok := traj.Baseline(series); ok {
			res.Baseline = base
			res.BaselineCommit = commit
			if base != 0 {
				res.Delta = (res.Median - base) / base
			}
			res.Verdict = string(stats.CheckRegression(base, sum, g.Threshold, opts.Confidence, info.LowerIsBetter))
		} else {
			res.Verdict = VerdictNoBaseline
		}
		switch res.Verdict {
		case string(stats.VerdictOK):
			rep.OK++
		case string(stats.VerdictRegressed):
			rep.Regressed++
		case string(stats.VerdictImproved):
			rep.Improved++
		case string(stats.VerdictTooNoisy):
			rep.TooNoisy++
		default:
			rep.NoBaseline++
		}
		rep.Gates = append(rep.Gates, res)
		blessed = append(blessed, TrajectoryBench{Name: series, Value: res.Median, Unit: info.Unit})
	}

	if opts.UpdateBaseline {
		if err := AppendGateBaselines(historyPath, blessed, opts.Commit, time.Now()); err != nil {
			return nil, err
		}
		rep.BaselinesUpdated = true
	}
	renderCheckReport(w, rep, historyPath)
	return rep, nil
}

// renderCheckReport prints the per-series verdict table and summary.
func renderCheckReport(w io.Writer, rep *CheckReport, historyPath string) {
	wide := len("series")
	for _, g := range rep.Gates {
		if len(g.Series) > wide {
			wide = len(g.Series)
		}
	}
	fmt.Fprintf(w, "%-*s  %12s  %12s  %-27s  %7s  %s\n",
		wide, "series", "baseline", "median", "ci", "delta", "verdict")
	for _, g := range rep.Gates {
		base := "-"
		delta := "-"
		if g.Verdict != VerdictNoBaseline {
			base = fmt.Sprintf("%.6g", g.Baseline)
			delta = fmt.Sprintf("%+.1f%%", 100*g.Delta)
		}
		fmt.Fprintf(w, "%-*s  %12s  %12.6g  %-27s  %7s  %s\n",
			wide, g.Series, base, g.Median,
			fmt.Sprintf("[%.6g, %.6g]", g.CILo, g.CIHi), delta, g.Verdict)
	}
	fmt.Fprintf(w, "bench-check: %d gated: %d ok, %d regressed, %d improved, %d too-noisy, %d no-baseline (N=%d default, %g%% CI)\n",
		len(rep.Gates), rep.OK, rep.Regressed, rep.Improved, rep.TooNoisy, rep.NoBaseline,
		rep.Iterations, 100*rep.Confidence)
	if rep.HostSkipped > 0 {
		fmt.Fprintf(w, "bench-check: %d host wall-clock gate(s) skipped; include them with -host-gates (or PAPERBENCH_HOST_GATES=1) after blessing per-host baselines\n",
			rep.HostSkipped)
	}
	if rep.NoBaseline > 0 && !rep.BaselinesUpdated {
		fmt.Fprintf(w, "bench-check: %d series have no baseline in %s; bless them with -update-baseline\n",
			rep.NoBaseline, historyPath)
	}
	if rep.BaselinesUpdated {
		fmt.Fprintf(w, "bench-check: blessed %d baselines into %s\n", len(rep.Gates), historyPath)
	}
	if rep.Failed() {
		fmt.Fprintf(w, "bench-check: FAIL — %d series regressed past their threshold; if intentional, bless with -update-baseline and commit %s\n",
			rep.Regressed, historyPath)
	}
}

// WriteCheckJSON writes the machine-readable report (atomically, like
// every other BENCH artifact).
func WriteCheckJSON(path string, rep *CheckReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(data, '\n'), 0o644)
}
