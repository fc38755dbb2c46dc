package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchHint: `paperbench bench` warns when a fresh measurement
// slipped past the hint threshold vs the newest trajectory entry, and
// stays quiet when it did not (or improved).
func TestBenchHint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	if err := AppendTrajectory(path, trajReport(50), BenchCommit{ID: "aaa"}, t0); err != nil {
		t.Fatal(err)
	}
	traj, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}

	if hint := benchHint(traj, trajReport(50)); hint != "" {
		t.Fatalf("unchanged measurement produced a hint: %q", hint)
	}
	if hint := benchHint(traj, trajReport(40)); hint != "" {
		t.Fatalf("improved measurement produced a hint: %q", hint)
	}
	slow := trajReport(60) // kernel ns/event +20%, past the 10% hint threshold
	hint := benchHint(traj, slow)
	if hint == "" || !strings.Contains(hint, "kernel ns/event") || !strings.Contains(hint, "bench-check") {
		t.Fatalf("slipped measurement hint = %q", hint)
	}

	empty := &TrajectoryFile{Entries: map[string][]TrajectoryEntry{}}
	if hint := benchHint(empty, slow); hint != "" {
		t.Fatalf("empty trajectory produced a hint: %q", hint)
	}
}
