package sim

import "fmt"

// Proc is a simulated hardware thread context. The body function runs in
// its own goroutine but only ever executes while it holds the kernel's
// control token, so Proc code may freely mutate shared simulator state.
// A Proc gives up control by calling WaitUntil/Delay (advancing its
// local time), by calling Block, or by returning from its body; in each
// case its goroutine runs the dispatcher and hands the token directly
// to whatever fires next (see Kernel.dispatch).
type Proc struct {
	k        *Kernel
	name     string
	cont     chan struct{} // token delivery: "you run now"
	finished bool
	started  bool
	body     func(*Proc)
	// blockedSince is the cycle at which the proc last yielded; DumpState
	// reports it for unfinished procs.
	blockedSince Time
}

// NewProc registers a simulated thread that begins executing body at
// time start. The body receives the Proc so it can wait on simulated
// time.
func (k *Kernel) NewProc(name string, start Time, body func(*Proc)) *Proc {
	p := &Proc{
		k:    k,
		name: name,
		cont: make(chan struct{}),
		body: body,
	}
	k.procs = append(k.procs, p)
	k.scheduleResume(start, p)
	return p
}

// main is the proc's goroutine: wait for the first token delivery, run
// the body (trapping a crash into the kernel error), then pass the
// token on — the goroutine that just finished is the dispatcher for
// whatever fires next.
func (p *Proc) main() {
	<-p.cont
	func() {
		defer func() {
			if r := recover(); r != nil {
				p.k.fail(fmt.Errorf("sim: proc %q crashed: %v", p.name, r))
			}
			p.finished = true
		}()
		p.body(p)
	}()
	p.k.dispatch(nil, false)
}

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.now }

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// WaitUntil blocks the simulated thread until time t. Waiting for the
// current time (or the past, which is clamped) costs nothing and does
// not yield, preserving atomicity of zero-time sequences.
//
// Fast path: when no live event fires strictly before t, handing
// control to the dispatcher would accomplish nothing — it would pop
// this proc's own resume event and hand control straight back. In
// that case the wait advances the clock in place, skipping the event
// push and the dispatch entirely. The elision is taken only when it is
// observationally invisible:
//
//   - an earlier (or same-time, which fires first by seq order) live
//     event forces the slow path, so no other proc's turn is skipped;
//   - t beyond the watchdog deadline forces the slow path, so Run
//     still reports the deadline through its usual error;
//   - a pending kernel error, pending interrupt, or a true stop
//     predicate forces the slow path, so Run performs exactly the
//     checks it would have anyway.
//
// KernelParanoid disables the fast path entirely; equivalence tests
// run both modes and require bit-identical cycle counts.
func (p *Proc) WaitUntil(t Time) {
	k := p.k
	if t <= k.now {
		return
	}
	if !k.paranoid && t <= k.maxTime && k.err == nil &&
		k.intrReason.Load() == nil && (k.stop == nil || !k.stop()) {
		if at, ok := k.peekLive(); !ok || at > t {
			k.now = t
			k.fastWaits++
			return
		}
	}
	k.scheduleResume(t, p)
	p.yield()
}

// Delay blocks the simulated thread for d cycles.
func (p *Proc) Delay(d Time) { p.WaitUntil(p.k.now + d) }

// Block parks the proc indefinitely; something else must call Unblock.
// Used for interrupt-style wakeups (e.g. a ULI response arriving).
func (p *Proc) Block() { p.yield() }

// Unblock schedules the proc to resume at time t. Must only be called
// for a proc parked with Block.
func (p *Proc) Unblock(t Time) {
	p.k.scheduleResume(t, p)
}

// yield passes the control token on by running the dispatcher on this
// goroutine. If the dispatcher pops this proc's own resume event it
// returns immediately — no goroutine switch; otherwise the token has
// left (to another proc, or to the kernel on a run-level condition)
// and the proc parks until a later dispatcher delivers it back.
func (p *Proc) yield() {
	p.blockedSince = p.k.now
	if p.k.dispatch(p, false) == dispatchSelf {
		return
	}
	<-p.cont
}
