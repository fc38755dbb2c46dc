package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSimdStreamDeterministic checks the simd-mix stream is a function
// of its seed alone, asks every seed for the same cells, and has the
// stated repeat, chaos and open shares.
func TestSimdStreamDeterministic(t *testing.T) {
	a, b := simdStream(7, 1), simdStream(7, 1)
	if len(a) != len(b) {
		t.Fatalf("lengths %d and %d from one seed", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].repeat != b[i].repeat {
			t.Fatalf("request %d differs between two streams from one seed", i)
		}
	}
	other := simdStream(8, 1)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, other[i].body) {
			same++
		}
	}
	if same > len(a)/4 {
		t.Errorf("seeds 7 and 8 share %d of %d positions", same, len(a))
	}
	if len(a) < 1000 {
		t.Errorf("stream has %d jobs, want at least 1000", len(a))
	}

	var repeats, fresh, chaos, open int
	cells := map[string]int{}
	for _, r := range a {
		if r.repeat {
			repeats++
			continue
		}
		fresh++
		var req struct {
			Kind, Config, App, Faults string
		}
		if err := json.Unmarshal(r.body, &req); err != nil {
			t.Fatal(err)
		}
		if r.chaos != (req.Faults == "chaos-lossy-all") || r.open != (req.Kind == "open") {
			t.Errorf("flags disagree with body %s", r.body)
		}
		if r.chaos {
			chaos++
		}
		if r.open {
			open++
			continue
		}
		cells[req.Config+"|"+req.App]++
	}
	if want := len(simdConfigs) * len(allApps()); len(cells) != want {
		t.Errorf("%d distinct run cells, want %d", len(cells), want)
	}
	for c, n := range cells {
		if n != runRounds {
			t.Errorf("cell %s requested %d times, want %d", c, n, runRounds)
		}
	}
	near := func(name string, got, want, tol float64) {
		if got < want-tol || got > want+tol {
			t.Errorf("%s share %.3f, want %.2f±%.2f", name, got, want, tol)
		}
	}
	near("repeat", float64(repeats)/float64(len(a)), 0.6, 0.01)
	near("chaos", float64(chaos)/float64(fresh), 0.3, 0.03)
	near("open", float64(open)/float64(fresh), 0.1, 0.01)
}

// TestBenchmarkJSONMatches checks BENCHMARK.json at the repository root
// lists exactly the workloads and metrics this program emits, under
// well-formed names.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, set := range []struct {
		listed []struct{ Name, Unit, Better string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.listed) != len(set.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program emits %d", len(set.listed), len(set.defs))
			continue
		}
		for i, d := range set.defs {
			l := set.listed[i]
			if !valid.MatchString(d.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
			}
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("BENCHMARK.json has %s %s %s, program %s %s %s",
					l.Name, l.Unit, l.Better, d.name, d.unit, d.better)
			}
		}
	}
}

// TestSmokeWorkloads runs a smoke-size traced and untraced pass of
// every workload through the command's entry point: every check must
// pass and every listed metric must be emitted.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0",
				"--trace", trace, "--smoke", "--workdir", dir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res runResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s missing or unit %q", name, trace, d.name, m.Unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestUnknownWorkload checks a bad workload name fails without a
// result line.
func TestUnknownWorkload(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"--workload", "nope", "--workdir", t.TempDir()}, &stdout, io.Discard); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestCountsMustRepeat checks a deterministic count that differs
// between passes makes the run incorrect.
func TestCountsMustRepeat(t *testing.T) {
	pass := func(cycles float64) *passResult {
		p := newPassResult()
		p.ops, p.wall, p.cycles = 1, 1, cycles
		p.counts["sim_cycles"] = cycles
		return p
	}
	if res := summarize([]*passResult{pass(5), pass(5)}, nil, nil, io.Discard); !res.Correct {
		t.Error("equal counts judged incorrect")
	}
	if res := summarize([]*passResult{pass(5), pass(6)}, nil, nil, io.Discard); res.Correct {
		t.Error("differing counts judged correct")
	}
}

// TestJobCountsIdentities checks the body identity checks catch broken
// accounting.
func TestJobCountsIdentities(t *testing.T) {
	for _, c := range []struct {
		body string
		open bool
		ok   bool
	}{
		{`[{"cycles":10,"uli_reqs":5,"uli_acks":2,"uli_nacks":2,"uli_drops":1}]`, false, true},
		{`[{"cycles":10,"uli_reqs":5,"uli_acks":2,"uli_nacks":2}]`, false, false},
		{`[{"cycles":10,"arrived":8,"completed":5,"shed":2,"in_flight_at_end":1}]`, true, true},
		{`[{"cycles":10,"arrived":8,"completed":5,"shed":2}]`, true, false},
		{`[{"cycles":0}]`, false, false},
		{`[]`, false, false},
	} {
		if _, _, err := jobCounts([]byte(c.body), c.open); (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.body, err, c.ok)
		}
	}
}

// TestSelfTimes checks a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "cell", Parent: -1, Start: 0, End: 100},
		{Name: "rt.Run", Parent: 0, Start: 10, End: 70},
		{Name: "Verify", Parent: 0, Start: 70, End: 90},
	}
	got := r.selfTimes(0)
	want := map[string]float64{"cell": 20e-9, "rt.Run": 60e-9, "Verify": 20e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("%s self time %g, want %g", k, got[k], v)
		}
	}
}

// TestGroupOf checks profile samples land in the right layer.
func TestGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bigtiny/internal/sim.(*Kernel).dispatch":      "sim",
		"bigtiny/internal/cache.(*L1).access":          "cache",
		"bigtiny/internal/apps.mmKernel.func1":         "apps",
		"bigtiny/internal/stats.Collect":               "other",
		"runtime.chanrecv":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"encoding/json.(*decodeState).object":          "other",
	} {
		if got := groupOf(fn); got != want {
			t.Errorf("groupOf(%s) = %s, want %s", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += uint64(i) * n
		}
	}
	return n
}

// TestProfileDecode checks a real CPU profile decodes and attributes a
// busy loop in this package to "other".
func TestProfileDecode(t *testing.T) {
	p := newProfiler()
	if err := p.start(); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range p.samples {
		total += n
	}
	if total == 0 {
		t.Fatal("no samples decoded")
	}
	if s := p.shares()["other"]; s < 0.5 {
		t.Errorf("busy loop share %.2f, want > 0.5 (samples %v)", s, p.samples)
	}
}
