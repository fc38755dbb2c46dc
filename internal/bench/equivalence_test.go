package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/stats"
	"bigtiny/internal/wsrt"
)

// runKernelMode performs one complete simulation with the WaitUntil
// fast path on or off (sim.KernelParanoid is read at NewKernel time,
// inside machine.New) and returns the full metric snapshot.
func runKernelMode(t *testing.T, cfgName, appName string, size apps.Size, paranoid bool) *stats.Run {
	t.Helper()
	prev := sim.KernelParanoid
	sim.KernelParanoid = paranoid
	defer func() { sim.KernelParanoid = prev }()

	cfg, err := machine.Lookup(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cfg)
	rt := wsrt.New(m, wsrt.AutoVariant(m))
	rt.Grain = grainFor(app, 0)
	inst := app.Setup(rt, size, 0)
	root := inst.Root
	if cfgName == "IOx1" {
		root = inst.SerialRoot
	}
	if err := rt.Run(root); err != nil {
		t.Fatalf("%s on %s (paranoid=%v): %v", appName, cfgName, paranoid, err)
	}
	read := func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) }
	if err := inst.Verify(read); err != nil {
		t.Fatalf("%s on %s (paranoid=%v): verify: %v", appName, cfgName, paranoid, err)
	}
	return stats.Collect(m, rt, appName)
}

// TestFastPathMatchesParanoid is the kernel fast path's ground truth:
// every app, at the Empty and Unit sizes, on a DTS and a non-DTS
// configuration, must produce bit-identical results with the fast path
// on and off — total cycles, the per-class cycle attribution big and
// tiny, and every other collected statistic (cache, NoC, DRAM, ULI,
// runtime counters). Any divergence means the wait elision changed the
// simulation, not just its host speed.
func TestFastPathMatchesParanoid(t *testing.T) {
	configs := []string{"bT/HCC-DTS-gwb", "bT/HCC-gwt"}
	for _, size := range []apps.Size{apps.Empty, apps.Unit} {
		for _, cfgName := range configs {
			for _, appName := range AppNames() {
				t.Run(size.String()+"/"+cfgName+"/"+appName, func(t *testing.T) {
					fast := runKernelMode(t, cfgName, appName, size, false)
					slow := runKernelMode(t, cfgName, appName, size, true)
					if fast.Cycles != slow.Cycles {
						t.Fatalf("total cycles: fast=%d paranoid=%d", fast.Cycles, slow.Cycles)
					}
					if fast.TinyBreakdown != slow.TinyBreakdown {
						t.Fatalf("tiny breakdown: fast=%v paranoid=%v",
							fast.TinyBreakdown, slow.TinyBreakdown)
					}
					if fast.BigBreakdown != slow.BigBreakdown {
						t.Fatalf("big breakdown: fast=%v paranoid=%v",
							fast.BigBreakdown, slow.BigBreakdown)
					}
					if !reflect.DeepEqual(fast, slow) {
						t.Fatalf("stats diverge:\nfast:     %+v\nparanoid: %+v", fast, slow)
					}
				})
			}
		}
	}
}

// TestFastPathMatchesParanoidTestSize spot-checks one real (Test-size)
// workload per runtime variant, where thousands of waits actually ride
// the fast path, not just the degenerate base cases.
func TestFastPathMatchesParanoidTestSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full Test-size equivalence runs are not short")
	}
	for _, cfgName := range []string{"bT/HCC-DTS-gwb", "bT/MESI", "IOx1"} {
		t.Run(cfgName, func(t *testing.T) {
			fast := runKernelMode(t, cfgName, "cilk5-cs", apps.Test, false)
			slow := runKernelMode(t, cfgName, "cilk5-cs", apps.Test, true)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("stats diverge:\nfast:     %+v\nparanoid: %+v", fast, slow)
			}
		})
	}
}

// runTrial performs one suite simulation of appName on ChaosConfig with
// the memory-ordering oracle on, under the given fault scenario and
// seed, with the WaitUntil fast path on or off. It returns the metric
// snapshot and the canonical JSON export. A run with an oracle
// violation fails (machine.Run reports it), so a clean return means
// zero violations.
func runTrial(size apps.Size, appName string, grain int, scenario string, faultSeed uint64,
	paranoid bool) (*stats.Run, []byte, error) {
	prev := sim.KernelParanoid
	sim.KernelParanoid = paranoid
	defer func() { sim.KernelParanoid = prev }()

	s := NewSuite(size)
	s.Grain = grain
	s.FaultScenario = scenario
	s.FaultSeed = faultSeed
	s.Oracle = true
	r, err := s.Run(ChaosConfig, appName)
	if err != nil {
		return nil, nil, err
	}
	js, err := s.ResultJSON(context.Background(), ChaosConfig, appName)
	return r, js, err
}

// TestDifferentialStress is the randomized differential harness: each
// trial draws an (app, size, grain, fault scenario, fault seed) tuple,
// runs it with the WaitUntil fast path and again under
// sim.KernelParanoid with the oracle shadowing both, and requires
// identical stats, a byte-identical JSON export, the ULI accounting
// identity, and zero oracle violations. It extends
// TestFastPathMatchesParanoid with faults, grains and the oracle. The
// generator is seeded; a failing trial prints the btsim command that
// replays its fast-path run.
func TestDifferentialStress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rng := rand.New(rand.NewSource(20260808))
	names := AppNames()
	scenarios := append([]string{""}, ChaosScenarios...)
	sizes := []apps.Size{apps.Empty, apps.Unit, apps.Test}
	grains := []int{0, 1, 4}

	const trials = 10
	for i := 0; i < trials; i++ {
		appName := names[rng.Intn(len(names))]
		size := sizes[rng.Intn(len(sizes))]
		grain := grains[rng.Intn(len(grains))]
		scenario := scenarios[rng.Intn(len(scenarios))]
		var faultSeed uint64
		if scenario != "" {
			faultSeed = uint64(rng.Intn(5) + 1)
		}
		replay := fmt.Sprintf("go run ./cmd/btsim -config %s -app %s -size %s -grain %d",
			ChaosConfig, appName, size, grain)
		if scenario != "" {
			replay += fmt.Sprintf(" -faults %s -fault-seed %d", scenario, faultSeed)
		}
		replay += " -oracle"
		t.Run(appName+"/"+size.String(), func(t *testing.T) {
			fast, fastJS, err := runTrial(size, appName, grain, scenario, faultSeed, false)
			if err != nil {
				t.Fatalf("fast path: %v\nreplay: %s", err, replay)
			}
			slow, slowJS, err := runTrial(size, appName, grain, scenario, faultSeed, true)
			if err != nil {
				t.Fatalf("paranoid: %v\nreplay: %s", err, replay)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("stats diverge:\nfast:     %+v\nparanoid: %+v\nreplay: %s", fast, slow, replay)
			}
			if !bytes.Equal(fastJS, slowJS) {
				t.Fatalf("JSON export diverges:\nfast:     %s\nparanoid: %s\nreplay: %s", fastJS, slowJS, replay)
			}
			if u := fast.ULI; u != nil && u.Reqs != u.Acks+u.Nacks+u.Drops {
				t.Fatalf("ULI accounting identity violated: reqs=%d acks=%d nacks=%d drops=%d\nreplay: %s",
					u.Reqs, u.Acks, u.Nacks, u.Drops, replay)
			}
			if fast.OracleOps == 0 {
				t.Fatalf("oracle checked no memory operations\nreplay: %s", replay)
			}
		})
	}
}
