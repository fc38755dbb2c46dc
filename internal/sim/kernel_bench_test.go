package sim

import "testing"

// BenchmarkSchedule measures the cost of scheduling plus firing one
// event through the kernel queue, with a live queue of ~1k events so
// heap operations pay realistic depth. The headline metric is
// allocs/op: the indexed free-list queue must stay at zero.
func BenchmarkSchedule(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	const depth = 1024
	for i := 0; i < depth; i++ {
		k.At(Time(i+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var fired int
	cb := func() { fired++ }
	k.NewProc("driver", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			k.At(k.Now()+depth, cb)
			p.Delay(1)
		}
	})
	if err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerArmCancel measures the arm/cancel churn pattern the
// ULI steal timeout produces: a timer armed far in the future and
// stopped almost immediately. Tombstone compaction must keep the
// queue from growing.
func BenchmarkTimerArmCancel(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	k.NewProc("driver", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			tm := k.TimerAt(k.Now()+1_000_000, func() {})
			tm.Stop()
			p.Delay(1)
		}
	})
	if err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWaitUntil measures a bare timed wait with an otherwise
// empty queue — the hot pattern of every core model's attribute().
// With the fast path this is a few loads and a store; in paranoid
// mode (or before PR 4) it is an event push, two channel handshakes,
// and a goroutine switch.
func BenchmarkWaitUntil(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	k.NewProc("driver", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(3)
		}
	})
	if err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTwoProcPingPong measures the unavoidable slow path: two
// procs whose waits interleave, so every wait really does cross an
// event boundary and a goroutine handoff.
func BenchmarkTwoProcPingPong(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	body := func(p *Proc) {
		for i := 0; i < b.N/2+1; i++ {
			p.Delay(2)
		}
	}
	k.NewProc("a", 0, body)
	k.NewProc("b", 1, body)
	if err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}
