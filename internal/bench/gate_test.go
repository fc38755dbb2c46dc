package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/stats"
)

func TestParseGates(t *testing.T) {
	src := `
# comment
[[gate]]
kind = "cell"            # trailing comment
config = "bT8/HCC-DTS-gwb"
app = "cilk5-cs"
size = "test"
metric = "sim_cycles"
threshold = 0.05
iterations = 2

[[gate]]
kind = "table3"
size = "test"
apps = ["cilk5-cs", "ligra-bfs"]  # subset
metric = "wall_sec"
threshold = 0.5

[[gate]]
kind = "kernel"
metric = "ns_per_event"
threshold = 0.25
`
	gates, err := ParseGates(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) != 3 {
		t.Fatalf("parsed %d gates, want 3", len(gates))
	}
	g := gates[0]
	if g.Kind != "cell" || g.Config != "bT8/HCC-DTS-gwb" || g.App != "cilk5-cs" ||
		g.Size != apps.Test || g.Metric != "sim_cycles" || g.Threshold != 0.05 || g.Iterations != 2 {
		t.Fatalf("gate[0] = %+v", g)
	}
	if got := gates[1].Apps; len(got) != 2 || got[0] != "cilk5-cs" || got[1] != "ligra-bfs" {
		t.Fatalf("gate[1].Apps = %v", got)
	}
	if gates[2].Series() != "gate:kernel:ns_per_event" {
		t.Fatalf("kernel series = %q", gates[2].Series())
	}
	if s := gates[0].Series(); s != "gate:cell[test]:bT8/HCC-DTS-gwb:cilk5-cs:g0:sim_cycles" {
		t.Fatalf("cell series = %q", s)
	}
	if s := gates[1].Series(); s != "gate:table3[test,cilk5-cs+ligra-bfs]:wall_sec" {
		t.Fatalf("table3 series = %q", s)
	}
}

// TestParseGatesOpen pins the open-gate grammar: scenario/rate select
// the DefaultOpenSweep cell.
func TestParseGatesOpen(t *testing.T) {
	src := `
[[gate]]
kind = "open"
config = "bT8/HCC-DTS-gwb"
scenario = "chaos-lossy-all"
rate = 4
size = "test"
metric = "latency_p99"
threshold = 0.05
`
	gates, err := ParseGates(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g := gates[0]
	if g.Kind != "open" || g.Scenario != "chaos-lossy-all" || g.Rate != 4 {
		t.Fatalf("open gate = %+v", g)
	}
	if s := g.Series(); s != "gate:open[test]:bT8/HCC-DTS-gwb:chaos-lossy-all:r4:latency_p99" {
		t.Fatalf("open series = %q", s)
	}
}

// TestParseGatesRejects: a typo must not silently un-gate a series.
func TestParseGatesRejects(t *testing.T) {
	cases := map[string]string{
		"unknown key":     "[[gate]]\nkind = \"kernel\"\nmetric = \"ns_per_event\"\nthreshold = 0.1\ntreshold = 0.1\n",
		"unknown kind":    "[[gate]]\nkind = \"kernle\"\nmetric = \"ns_per_event\"\nthreshold = 0.1\n",
		"unknown metric":  "[[gate]]\nkind = \"kernel\"\nmetric = \"nsec\"\nthreshold = 0.1\n",
		"zero threshold":  "[[gate]]\nkind = \"kernel\"\nmetric = \"ns_per_event\"\n",
		"unknown config":  "[[gate]]\nkind = \"cell\"\nconfig = \"bT/NOPE\"\napp = \"cilk5-cs\"\nmetric = \"sim_cycles\"\nthreshold = 0.1\n",
		"unknown app":     "[[gate]]\nkind = \"cell\"\nconfig = \"bT8/MESI\"\napp = \"nope\"\nmetric = \"sim_cycles\"\nthreshold = 0.1\n",
		"key outside":     "kind = \"kernel\"\n",
		"no gates":        "# empty\n",
		"unquoted string": "[[gate]]\nkind = kernel\nmetric = \"ns_per_event\"\nthreshold = 0.1\n",
		"open no rate":    "[[gate]]\nkind = \"open\"\nconfig = \"bT8/MESI\"\nmetric = \"latency_p99\"\nthreshold = 0.1\n",
		"open bad fault":  "[[gate]]\nkind = \"open\"\nconfig = \"bT8/MESI\"\nscenario = \"nope\"\nrate = 4\nmetric = \"latency_p99\"\nthreshold = 0.1\n",
		"open bad config": "[[gate]]\nkind = \"open\"\nconfig = \"bT/NOPE\"\nrate = 4\nmetric = \"latency_p99\"\nthreshold = 0.1\n",
	}
	for name, src := range cases {
		if _, err := ParseGates(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected a parse/validate error", name)
		}
	}
}

// checkGates is the deterministic worklist the end-to-end tests gate:
// simulated cycles of one tiny cell are bit-identical run to run.
func checkGates() []Gate {
	return []Gate{{
		Kind: "cell", Config: "bT8/HCC-DTS-gwb", App: "cilk5-cs",
		Size: apps.Test, Metric: "sim_cycles", Threshold: 0.05, Iterations: 2,
	}}
}

// TestBenchCheckLifecycle walks the full gate lifecycle on a temp
// trajectory: no baseline yet (reported, not failed) → bless → five
// repeated checks on an unchanged tree all pass with verdict ok →
// check-json round-trips.
func TestBenchCheckLifecycle(t *testing.T) {
	history := filepath.Join(t.TempDir(), "BENCH.json")
	commit := BenchCommit{ID: "c1", Message: "m"}

	var out bytes.Buffer
	rep, err := BenchCheck(&out, checkGates(), history, CheckOptions{Commit: commit})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoBaseline != 1 || rep.Failed() {
		t.Fatalf("fresh trajectory: %+v", rep)
	}

	if _, err := BenchCheck(&out, checkGates(), history, CheckOptions{Commit: commit, UpdateBaseline: true}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		out.Reset()
		rep, err := BenchCheck(&out, checkGates(), history, CheckOptions{Commit: commit})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() || rep.OK != 1 {
			t.Fatalf("unchanged tree, run %d: %+v\n%s", i, rep, out.String())
		}
		g := rep.Gates[0]
		if g.Verdict != string(stats.VerdictOK) || g.CILo != g.CIHi || g.Delta != 0 {
			t.Fatalf("unchanged deterministic cell: %+v", g)
		}
	}

	jsonPath := filepath.Join(t.TempDir(), "check.json")
	if err := WriteCheckJSON(jsonPath, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var round CheckReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("check-json is not valid JSON: %v", err)
	}
	if len(round.Gates) != 1 || round.Gates[0].Series != checkGates()[0].Series() {
		t.Fatalf("check-json round-trip: %+v", round)
	}
}

// TestBenchCheckDetectsSlowdown injects a synthetic slowdown through
// the suite's SimHook (each simulation sleeps on the host) and asserts
// the wall-clock gate fails the check — the acceptance path: a slowed
// gated cell must exit non-zero.
func TestBenchCheckDetectsSlowdown(t *testing.T) {
	history := filepath.Join(t.TempDir(), "BENCH.json")
	commit := BenchCommit{ID: "c1"}
	gates := []Gate{{
		Kind: "cell", Config: "bT8/HCC-DTS-gwb", App: "cilk5-cs",
		Size: apps.Test, Metric: "wall_sec", Threshold: 0.5, Iterations: 3,
	}}

	var out bytes.Buffer
	// Bless a clean-tree baseline.
	if _, err := BenchCheck(&out, gates, history, CheckOptions{Commit: commit, UpdateBaseline: true}); err != nil {
		t.Fatal(err)
	}

	// Re-check with every simulation slowed by far more than the
	// threshold: the whole CI lands past baseline*(1+0.5).
	out.Reset()
	rep, err := BenchCheck(&out, gates, history, CheckOptions{
		Commit:  commit,
		SimHook: func(cfg, app string) { time.Sleep(250 * time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || rep.Regressed != 1 {
		t.Fatalf("slowed cell not flagged: %+v\n%s", rep, out.String())
	}
	if got := rep.Gates[0].Verdict; got != string(stats.VerdictRegressed) {
		t.Fatalf("verdict = %s, want regressed", got)
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("verdict table does not announce the failure:\n%s", out.String())
	}

	// Blessing the regression clears the gate: the medians become the
	// new baselines, and the same slowed tree now passes.
	out.Reset()
	if _, err := BenchCheck(&out, gates, history, CheckOptions{
		Commit:         commit,
		UpdateBaseline: true,
		SimHook:        func(cfg, app string) { time.Sleep(250 * time.Millisecond) },
	}); err != nil {
		t.Fatal(err)
	}
	rep, err = BenchCheck(&out, gates, history, CheckOptions{
		Commit:  commit,
		SimHook: func(cfg, app string) { time.Sleep(250 * time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("blessed regression still fails: %+v", rep)
	}
}

// TestBenchCheckOpenGateDeterministic: the open-system latency gate
// measures a deterministic number — repeated checks of an unchanged
// tree return the exact same p99, so the gate can never flake.
func TestBenchCheckOpenGateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	history := filepath.Join(t.TempDir(), "BENCH.json")
	commit := BenchCommit{ID: "c1"}
	gates := []Gate{
		{
			Kind: "open", Config: "bT8/HCC-DTS-gwb", Scenario: "chaos-lossy-all",
			Rate: 4, Size: apps.Empty, Metric: "latency_p99", Threshold: 0.05, Iterations: 2,
		},
	}
	var out bytes.Buffer
	if _, err := BenchCheck(&out, gates, history, CheckOptions{Commit: commit, UpdateBaseline: true}); err != nil {
		t.Fatal(err)
	}
	rep, err := BenchCheck(&out, gates, history, CheckOptions{Commit: commit})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() || rep.OK != 1 {
		t.Fatalf("unchanged tree: %+v\n%s", rep, out.String())
	}
	for _, g := range rep.Gates {
		if g.CILo != g.CIHi || g.Delta != 0 {
			t.Fatalf("gated series %s is not deterministic: %+v", g.Series, g)
		}
	}
}

// TestBenchCheckRejectsDuplicateSeries: two gates resolving to one
// series would make the verdict table ambiguous.
func TestBenchCheckRejectsDuplicateSeries(t *testing.T) {
	history := filepath.Join(t.TempDir(), "BENCH.json")
	gates := append(checkGates(), checkGates()...)
	if _, err := BenchCheck(&bytes.Buffer{}, gates, history, CheckOptions{}); err == nil {
		t.Fatal("expected an error for duplicate gate series")
	}
}

// TestBenchCheckBrokenCellPropagates: a gate on a simulation that dies
// (injected panic) is an operational error, not a silent pass.
func TestBenchCheckBrokenCellPropagates(t *testing.T) {
	history := filepath.Join(t.TempDir(), "BENCH.json")
	_, err := BenchCheck(&bytes.Buffer{}, checkGates(), history, CheckOptions{
		SimHook: func(cfg, app string) { panic("injected") },
	})
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("expected the injected panic to surface, got %v", err)
	}
}
