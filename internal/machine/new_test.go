package machine

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkMachineNew measures machine construction per config: the
// set-up cost every simulation cell pays before its first cycle.
func BenchmarkMachineNew(b *testing.B) {
	for _, name := range []string{"bT8/HCC-DTS-gwb", "bT/HCC-DTS-gwb", "bT256/HCC-DTS-gwb"} {
		cfg := mustCfg(b, name)
		b.Run(strings.ReplaceAll(name, "/", "_"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(cfg)
			}
		})
	}
}

// TestMachineNewAllocs guards construction cost by object count, which
// is deterministic: building every L2 way up front made one bT256
// machine allocate ~312k objects; building sets on first touch makes it
// a few thousand.
func TestMachineNewAllocs(t *testing.T) {
	cfg := mustCfg(t, "bT256/HCC-DTS-gwb")
	const limit = 20000
	if n := testing.AllocsPerRun(3, func() { New(cfg) }); n >= limit {
		t.Fatalf("machine.New(%s) allocates %.0f objects, want < %d", cfg.Name, n, limit)
	}
}

func TestNewRejectsBanksWiderThanMesh(t *testing.T) {
	cfg := mustCfg(t, "bT8/HCC-DTS-gwb")
	cfg.NumBanks = cfg.Cols + 1
	defer func() {
		msg := fmt.Sprint(recover())
		want := fmt.Sprintf("%d banks do not fit in %d mesh columns", cfg.NumBanks, cfg.Cols)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", msg, want)
		}
	}()
	New(cfg)
}
