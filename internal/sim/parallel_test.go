package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The kernel itself is serial, but it runs on several host goroutines:
// the control token moves between Run's goroutine and proc goroutines,
// and paperbench -j and the simd worker pool run many kernels at once.
// These tests pin the contracts that host parallelism relies on. Under
// -race (make race runs this package at -cpu=1,2,4) they also show that
// kernels share no mutable state.

// sameTimeTrace runs a kernel in which two procs and a callback post
// events for the same instants, and returns the fire order.
func sameTimeTrace(t *testing.T) []string {
	k := NewKernel()
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		k.NewProc(name, 0, func(p *Proc) {
			for i := 0; i < 20; i++ {
				at := p.Now() + 10
				p.Kernel().At(at, func() { order = append(order, fmt.Sprintf("%s@%d", name, at)) })
				p.Delay(10)
			}
		})
	}
	k.At(10, func() { order = append(order, "cb@10") })
	if err := k.Run(nil); err != nil {
		t.Error(err)
	}
	return order
}

// TestParallelExecSameTimeOrder: same-instant events fire in the order
// they were scheduled even though procs post them from their own
// goroutines, and kernels running side by side on host goroutines all
// produce the trace a lone run produces.
func TestParallelExecSameTimeOrder(t *testing.T) {
	// The callback was scheduled before either proc first ran, so it
	// leads; after it, each instant fires a's post then b's, the order
	// in which the procs took the token.
	want := []string{"cb@10"}
	for at := 10; at <= 200; at += 10 {
		want = append(want, fmt.Sprintf("a@%d", at), fmt.Sprintf("b@%d", at))
	}
	if lone := sameTimeTrace(t); fmt.Sprint(lone) != fmt.Sprint(want) {
		t.Fatalf("lone run fired %v, want %v", lone, want)
	}
	const kernels = 4
	got := make([][]string, kernels)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = sameTimeTrace(t)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if fmt.Sprint(g) != fmt.Sprint(want) {
			t.Fatalf("kernel %d of %d run side by side fired %v, want %v", i, kernels, g, want)
		}
	}
}

// TestParallelExecRestart: sequential Runs on one kernel continue where
// the last one stopped, whichever host goroutine calls Run — a worker
// pool may hand a kernel to a different goroutine between Runs.
func TestParallelExecRestart(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(5, func() { fired++ })
	run := func() {
		done := make(chan error)
		go func() { done <- k.Run(nil) }()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	run()
	k.At(k.Now()+5, func() { fired++ })
	k.NewProc("late", k.Now(), func(p *Proc) {
		p.Delay(3)
		fired++
	})
	run()
	if fired != 3 || k.Now() != 10 {
		t.Fatalf("fired=%d now=%d after two Runs, want 3/10", fired, k.Now())
	}
}

// TestParallelExecPanicPropagates: a callback that panics while a proc
// goroutine holds the control token resurfaces out of Run on the
// caller's goroutine, and a kernel running beside it is unaffected.
func TestParallelExecPanicPropagates(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	var sibling []string
	go func() {
		defer wg.Done()
		sibling = sameTimeTrace(t)
	}()

	k := NewKernel()
	onProc := false
	k.NewProc("yielder", 0, func(p *Proc) {
		onProc = true
		p.Delay(10) // the callback at 5 fires first, dispatched from this goroutine
	})
	k.At(5, func() {
		if !onProc {
			t.Error("callback fired before the proc took the token")
		}
		panic("boom on a proc goroutine")
	})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("callback panic did not propagate out of Run")
			}
			if !strings.Contains(fmt.Sprint(r), "boom on a proc goroutine") {
				t.Fatalf("wrong panic: %v", r)
			}
		}()
		k.Run(nil)
	}()

	wg.Wait()
	if want := sameTimeTrace(t); fmt.Sprint(sibling) != fmt.Sprint(want) {
		t.Fatalf("sibling kernel fired %v, want %v", sibling, want)
	}
}

// TestParallelExecInterrupt: an Interrupt aimed at one of several
// kernels running side by side aborts that kernel with the usual
// watchdog error and dump, and leaves the others to finish normally.
func TestParallelExecInterrupt(t *testing.T) {
	const kernels = 3
	ks := make([]*Kernel, kernels)
	for i := range ks {
		k := NewKernel()
		for _, name := range []string{"a", "b"} {
			k.NewProc(name, 0, func(p *Proc) {
				for j := 0; j < 200; j++ {
					p.Kernel().After(1, func() {})
					p.Delay(2)
				}
			})
		}
		ks[i] = k
	}
	const victim = 1
	ks[victim].Interrupt("test abort")

	errs := make([]error, kernels)
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i int, k *Kernel) {
			defer wg.Done()
			errs[i] = k.Run(nil)
		}(i, k)
	}
	wg.Wait()

	for i, err := range errs {
		if i == victim {
			if err == nil || !strings.Contains(err.Error(), "interrupted: test abort") {
				t.Fatalf("kernel %d: err = %v, want interrupt watchdog error", i, err)
			}
			if !strings.Contains(err.Error(), "kernel: cycle=") {
				t.Fatalf("kernel %d: watchdog error missing the dump:\n%v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("kernel %d was not interrupted but failed: %v", i, err)
		}
		if ks[i].Now() != 400 {
			t.Fatalf("kernel %d stopped at cycle %d, want 400", i, ks[i].Now())
		}
	}
}
