package cache

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bigtiny/internal/dram"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
)

// setOf returns the bank and set index that hold line address la.
func setOf(s *System, la mem.Addr) (*bank, int) {
	b := s.bankFor(la)
	return b, b.setIndex(la, len(s.banks), s.cfg.L2SetsPerBank)
}

// TestPeekUntouchedLeavesSetNil: reading an address the L2 never saw
// returns the DRAM value without building its set.
func TestPeekUntouchedLeavesSetNil(t *testing.T) {
	sys := newTestSystem(t, []Protocol{MESI, GPUWB}, 4096)
	a := sys.Mem().Alloc(64)
	sys.Mem().WriteWord(a+8, 42)
	la := mem.LineAddr(a)
	b, si := setOf(sys, la)
	if l := sys.peek(b, la); l != nil {
		t.Fatal("peek found a line in an untouched set")
	}
	if got := sys.DebugReadWord(a + 8); got != 42 {
		t.Fatalf("DebugReadWord = %d, want the DRAM value 42", got)
	}
	if b.sets[si] != nil {
		t.Fatal("peek/DebugReadWord built the set")
	}
	sys.L1(0).Load(0, a+8)
	if b.sets[si] == nil || sys.peek(b, la) == nil {
		t.Fatal("a load did not build the set and fill the line")
	}
}

// TestLazySetFillEvictRefill: the first lookup in a set builds it with
// every way empty and unowned; filling past its ways evicts in LRU
// order and a refill reads back the written value.
func TestLazySetFillEvictRefill(t *testing.T) {
	sys := tinyL2System(t, []Protocol{MESI})
	l1 := sys.L1(0)
	// 2 banks x 2 sets: lines 4 apart share a bank and a set.
	base := sys.Mem().Alloc(64 * 64)
	addrs := []mem.Addr{base, base + 4*64, base + 8*64}
	b, si := setOf(sys, addrs[0])
	for _, a := range addrs[1:] {
		if b2, si2 := setOf(sys, a); b2 != b || si2 != si {
			t.Fatalf("address %#x not in the test set", a)
		}
	}
	if b.sets[si] != nil {
		t.Fatal("set built before first touch")
	}
	sys.lookup(0, b, addrs[0])
	set := b.sets[si]
	if len(set) != sys.cfg.L2Ways {
		t.Fatalf("built set has %d ways, want %d", len(set), sys.cfg.L2Ways)
	}
	for w := range set {
		l := &set[w]
		if l.owner != -1 || l.hasWordOwners() || !l.sharers.empty() {
			t.Fatalf("way %d built with owners: %+v", w, l)
		}
	}
	tt := l1.Store(0, addrs[0], 7)
	for _, a := range addrs[1:] {
		tt = l1.Store(tt, a, 9)
	}
	if sys.L2Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", sys.L2Stats.Evictions)
	}
	if sys.peek(b, addrs[0]) != nil {
		t.Fatal("the LRU line was not the victim")
	}
	misses := sys.L2Stats.Misses
	if got := sys.DebugReadWord(addrs[0]); got != 7 {
		t.Fatalf("evicted line reads %d, want 7", got)
	}
	if got, _ := l1.Load(tt, addrs[0]); got != 7 {
		t.Fatalf("refilled line reads %d, want 7", got)
	}
	if sys.L2Stats.Misses != misses+1 {
		t.Fatalf("refill misses = %d, want %d", sys.L2Stats.Misses-misses, 1)
	}
}

func TestBitsetHighCores(t *testing.T) {
	var b bitset
	order := []int{255, 0, 64, 63, 200, 128, 127}
	for _, i := range order {
		b.set(i)
	}
	for _, i := range order {
		if !b.has(i) {
			t.Fatalf("has(%d) = false after set", i)
		}
	}
	if b.has(254) || b.has(1) {
		t.Fatal("unset bits reported present")
	}
	if n := b.count(); n != len(order) {
		t.Fatalf("count = %d, want %d", n, len(order))
	}
	var got []int
	b.forEach(func(i int) { got = append(got, i) })
	if want := []int{0, 63, 64, 127, 128, 200, 255}; !reflect.DeepEqual(got, want) {
		t.Fatalf("forEach order = %v, want %v", got, want)
	}
	b.clear(255)
	if b.has(255) || b.count() != len(order)-1 {
		t.Fatal("clear(255) failed")
	}
	b.clearAll()
	if !b.empty() {
		t.Fatal("clearAll left bits set")
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// every string in want.
func mustPanic(t *testing.T, f func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		msg := fmt.Sprint(r)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	f()
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	mesh := noc.NewMesh(2, 2)
	good := func() Config {
		return Config{
			NumCores:      2,
			CoreNode:      []noc.NodeID{mesh.Node(0, 0), mesh.Node(0, 1)},
			BankNode:      []noc.NodeID{mesh.Node(1, 0)},
			MCs:           []*dram.Controller{dram.NewController("mc", dram.DefaultConfig())},
			L2SetsPerBank: 2,
			L2Ways:        2,
		}
	}
	NewSystem(good(), mesh, mem.New()) // the baseline builds

	cfg := good()
	cfg.NumCores = 257
	mustPanic(t, func() { NewSystem(cfg, mesh, mem.New()) }, "NumCores", "257", "256")

	cfg = good()
	cfg.L2SetsPerBank = 0
	mustPanic(t, func() { NewSystem(cfg, mesh, mem.New()) }, "L2SetsPerBank")

	cfg = good()
	cfg.L2Ways = 0
	mustPanic(t, func() { NewSystem(cfg, mesh, mem.New()) }, "L2Ways")
}
