// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a time-ordered event queue. Simulated hardware threads
// (Procs) run ordinary Go code in goroutines, but a single control token
// — passed by direct channel handoff from whichever goroutine yields to
// whichever runs next — guarantees that exactly one goroutine executes
// at any moment. All simulator state can therefore be mutated without
// locks, and a given seed and workload always produce the same cycle
// counts.
//
// The queue is built for host speed without giving up determinism: heap
// entries are small values (no per-event heap allocation, no interface
// boxing), callbacks live in a slab recycled through a free list, and
// Timer handles carry a generation stamp so Stop on a recycled slot is
// detected instead of corrupting an unrelated event. See DESIGN.md §12.
package sim

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
)

// Time is simulation time measured in clock cycles.
type Time uint64

// Forever is a time later than any reachable simulation time.
const Forever = Time(^uint64(0))

// KernelParanoid, when set before NewKernel, disables the WaitUntil
// fast path (see Proc.WaitUntil): every timed wait goes through a real
// queue event and a goroutine handoff, exactly as the pre-fast-path
// kernel behaved. The two modes must produce bit-identical cycle
// counts; equivalence tests flip this to prove it. It is read once at
// NewKernel time, so flip it only between simulations.
var KernelParanoid bool

// eventRef is one heap entry: the firing time, a sequence number that
// breaks same-time ties in scheduling order (determinism), and the
// index of the slot holding the callback. Refs are plain values — the
// heap is a []eventRef and sifting moves 24-byte records, never
// pointers the GC has to trace.
type eventRef struct {
	at  Time
	seq uint64
	idx int32
}

// eventSlot holds a scheduled event: either a plain callback (fn) or a
// proc resumption (proc). The distinction lets the dispatcher hand
// control directly to a resuming proc instead of calling through an
// opaque closure. Slots are recycled through a free list; gen
// increments on every free, so a stale Timer handle (slot fired, was
// compacted, or got reused) can be recognized by generation mismatch.
// A slot with neither fn nor proc is a tombstone (stopped Timer).
type eventSlot struct {
	fn   func()
	proc *Proc
	gen  uint32
	next int32 // free-list link; meaningful only while free
}

// Kernel is the discrete-event engine. The zero value is not usable;
// call NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	queue []eventRef
	slots []eventSlot
	free  int32 // head of the slot free list, -1 when empty
	// tombstones counts cancelled timers still occupying queue entries.
	// They are skipped for free at pop time, but a workload that arms
	// and cancels timers much faster than events fire would grow the
	// queue without bound, so the queue compacts itself when tombstones
	// outnumber half the live events.
	tombstones int
	procs      []*Proc

	// paranoid disables the WaitUntil fast path (see KernelParanoid).
	paranoid bool
	// stop is the active Run's stop predicate, consulted by the
	// WaitUntil fast path so eliding an event cannot elide a stop check
	// that would have fired.
	stop func() bool

	// Host-performance counters (free to maintain, exported for the
	// benchmarking rig): events scheduled, callbacks fired, and timed
	// waits satisfied in place without a queue event.
	scheduled uint64
	fired     uint64
	fastWaits uint64

	// maxTime aborts runaway simulations (e.g. a livelocked runtime).
	maxTime Time
	// intrReason, when non-nil, is an asynchronous abort request (see
	// Interrupt). It is the only kernel field another goroutine may
	// touch while a simulation runs, hence the atomic.
	intrReason atomic.Pointer[string]
	// interruptHit mirrors deadlineHit for interrupts: set by the
	// dispatcher that observed the request, consumed by Run.
	interruptHit bool
	// err records a crash in simulated software (a proc panic); Run
	// stops and returns it, modelling a machine crash.
	err error

	// Direct-handoff dispatch state (see dispatch). done returns the
	// control token to the kernel goroutine when a dispatcher running on
	// a proc goroutine hits a run-level condition; the condition itself
	// travels in the fields below and is consumed by Run.
	done        chan struct{}
	stopHit     bool
	deadlineHit bool
	deadlineAt  Time
	// cbPanic carries a panic out of an event callback (or a
	// resume-after-finish bug) back to Run, which re-panics with it:
	// simulator bugs stay loud no matter which goroutine held the token
	// when they fired.
	cbPanic any

	// dumpHooks are extra diagnostic writers (registered by higher
	// layers: ULI fabric state, runtime deque occupancy, ...) appended
	// to DumpState output and watchdog errors.
	dumpHooks []func(io.Writer)
}

// NewKernel returns an empty kernel positioned at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{
		maxTime:  Forever,
		free:     -1,
		paranoid: KernelParanoid,
		done:     make(chan struct{}),
	}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// SetDeadline makes Run fail once simulated time exceeds t. Useful as a
// watchdog against livelocked simulated software.
func (k *Kernel) SetDeadline(t Time) { k.maxTime = t }

// SetParanoid toggles the WaitUntil fast path on an existing kernel
// (see KernelParanoid).
func (k *Kernel) SetParanoid(on bool) { k.paranoid = on }

// Interrupt requests an asynchronous abort of the running simulation:
// the next dispatch (or WaitUntil fast path) observes the request and
// Run returns a watchdog error carrying reason plus the full machine
// dump, exactly like a deadline. It is the one kernel entry point that
// is safe to call from another goroutine — a serving layer uses it to
// cancel an in-flight job on a wall-clock timeout or a shutdown drain.
// The first reason wins; later calls are no-ops.
func (k *Kernel) Interrupt(reason string) {
	k.intrReason.CompareAndSwap(nil, &reason)
}

// Scheduled returns the number of events scheduled so far.
func (k *Kernel) Scheduled() uint64 { return k.scheduled }

// Fired returns the number of event callbacks that have run.
func (k *Kernel) Fired() uint64 { return k.fired }

// FastWaits returns the number of timed waits satisfied in place by
// the WaitUntil fast path (no event, no goroutine switch).
func (k *Kernel) FastWaits() uint64 { return k.fastWaits }

// fail records a simulated-software crash.
func (k *Kernel) fail(err error) {
	if k.err == nil {
		k.err = err
	}
}

// refLess orders heap entries by (time, scheduling order).
func refLess(a, b eventRef) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// allocSlot takes a slot off the free list (or grows the slab) and
// installs the event payload — a callback or a proc resumption.
// Returns the slot index and its current generation.
func (k *Kernel) allocSlot(fn func(), p *Proc) (int32, uint32) {
	if k.free >= 0 {
		idx := k.free
		s := &k.slots[idx]
		k.free = s.next
		s.fn = fn
		s.proc = p
		return idx, s.gen
	}
	k.slots = append(k.slots, eventSlot{fn: fn, proc: p})
	return int32(len(k.slots) - 1), 0
}

// freeSlot returns a slot to the free list, bumping its generation so
// outstanding Timer handles to it go stale.
func (k *Kernel) freeSlot(idx int32) {
	s := &k.slots[idx]
	s.fn = nil
	s.proc = nil
	s.gen++
	s.next = k.free
	k.free = idx
}

// push adds a heap entry (sift-up on the value slice).
func (k *Kernel) push(at Time, seq uint64, idx int32) {
	k.queue = append(k.queue, eventRef{at: at, seq: seq, idx: idx})
	i := len(k.queue) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(k.queue[i], k.queue[parent]) {
			break
		}
		k.queue[i], k.queue[parent] = k.queue[parent], k.queue[i]
		i = parent
	}
}

// popRoot removes and returns the minimum heap entry.
func (k *Kernel) popRoot() eventRef {
	root := k.queue[0]
	n := len(k.queue) - 1
	k.queue[0] = k.queue[n]
	k.queue = k.queue[:n]
	k.siftDown(0)
	return root
}

func (k *Kernel) siftDown(i int) {
	n := len(k.queue)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && refLess(k.queue[r], k.queue[l]) {
			m = r
		}
		if !refLess(k.queue[m], k.queue[i]) {
			return
		}
		k.queue[i], k.queue[m] = k.queue[m], k.queue[i]
		i = m
	}
}

// schedule allocates a slot for fn and queues it at time t.
func (k *Kernel) schedule(t Time, fn func()) (int32, uint32) {
	k.seq++
	k.scheduled++
	idx, gen := k.allocSlot(fn, nil)
	k.push(t, k.seq, idx)
	return idx, gen
}

// scheduleResume queues proc p to resume at time t. Resumes are tagged
// in the slot (rather than hidden in a closure) so the dispatcher can
// hand the control token straight to p's goroutine.
func (k *Kernel) scheduleResume(t Time, p *Proc) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, k.now))
	}
	k.seq++
	k.scheduled++
	idx, _ := k.allocSlot(nil, p)
	k.push(t, k.seq, idx)
}

// At schedules fn to run at time t. Scheduling in the past is an error
// in the simulator itself, so it panics.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, k.now))
	}
	k.schedule(t, fn)
}

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Timer is a cancellable one-shot event, the building block for
// simulated-cycle timeouts (e.g. the ULI steal-request timeout). A
// stopped timer's queue entry is skipped by Run without advancing
// simulated time, so arming-and-cancelling timers is observationally
// free: cycle counts are bit-identical to a run that never armed them.
//
// The handle names its event by (slot, generation): once the callback
// fires — or a cancelled entry is reclaimed — the slot's generation
// moves on, and a late Stop through the stale handle is a detected
// no-op rather than a cancellation of whatever stranger now occupies
// the recycled slot.
type Timer struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Stop cancels the timer. It reports whether the cancellation was in
// time (false if the callback already ran or Stop was already called).
func (t *Timer) Stop() bool {
	if t == nil || t.k == nil {
		return false
	}
	s := &t.k.slots[t.idx]
	if s.gen != t.gen || s.fn == nil {
		return false
	}
	s.fn = nil
	t.k.tombstones++
	t.k.compactIfNeeded()
	return true
}

// Active reports whether the timer is still armed (not fired, not
// stopped).
func (t *Timer) Active() bool {
	if t == nil || t.k == nil {
		return false
	}
	s := &t.k.slots[t.idx]
	return s.gen == t.gen && s.fn != nil
}

// TimerAt schedules fn at time t and returns a handle that can cancel
// it.
func (k *Kernel) TimerAt(t Time, fn func()) *Timer {
	if t < k.now {
		panic(fmt.Sprintf("sim: timer at %d before now %d", t, k.now))
	}
	idx, gen := k.schedule(t, fn)
	return &Timer{k: k, idx: idx, gen: gen}
}

// TimerAfter schedules fn d cycles from now, cancellable.
func (k *Kernel) TimerAfter(d Time, fn func()) *Timer { return k.TimerAt(k.now+d, fn) }

// compactTombstoneFloor keeps tiny queues from compacting constantly;
// below it the lazy pop-time skip is always cheaper.
const compactTombstoneFloor = 32

// compactIfNeeded rebuilds the queue without tombstones once cancelled
// entries outnumber half the live events, bounding queue growth under
// arm/cancel churn (the ULI steal timeout pattern) to O(live events).
func (k *Kernel) compactIfNeeded() {
	if k.tombstones < compactTombstoneFloor {
		return
	}
	if live := len(k.queue) - k.tombstones; k.tombstones <= live/2 {
		return
	}
	w := 0
	for _, ref := range k.queue {
		if s := &k.slots[ref.idx]; s.fn == nil && s.proc == nil {
			k.freeSlot(ref.idx)
			continue
		}
		k.queue[w] = ref
		w++
	}
	k.queue = k.queue[:w]
	k.tombstones = 0
	for i := w/2 - 1; i >= 0; i-- {
		k.siftDown(i)
	}
}

// QueueLen returns the number of queue entries, including
// not-yet-reclaimed tombstones (diagnostics and tests).
func (k *Kernel) QueueLen() int { return len(k.queue) }

// Tombstones returns the number of cancelled entries still queued.
func (k *Kernel) Tombstones() int { return k.tombstones }

// peekLive returns the firing time of the earliest live event,
// discarding any tombstones it finds at the root on the way. Tombstone
// reclamation has no observable effect on simulated time, so doing it
// here (from a Proc's wait) is equivalent to doing it in Run.
func (k *Kernel) peekLive() (Time, bool) {
	for len(k.queue) > 0 {
		ref := k.queue[0]
		if s := &k.slots[ref.idx]; s.fn != nil || s.proc != nil {
			return ref.at, true
		}
		k.popRoot()
		k.tombstones--
		k.freeSlot(ref.idx)
	}
	return 0, false
}

// dispatchOutcome says how a dispatch loop ended for its caller.
type dispatchOutcome int

const (
	// dispatchSelf: the dispatching proc popped its own resume — it
	// keeps the token and continues its body with no goroutine switch.
	dispatchSelf dispatchOutcome = iota
	// dispatchHandoff: the token was handed to another proc's goroutine;
	// the caller must park (or exit, if its body has finished).
	dispatchHandoff
	// dispatchStopped: a run-level condition (error, stop predicate,
	// empty queue, deadline, callback panic) returned the token to the
	// kernel goroutine, which consumes the condition in Run.
	dispatchStopped
)

// dispatch is the event loop, runnable from any goroutine that holds
// the control token: the kernel goroutine inside Run (onKernel true),
// a proc yielding in WaitUntil/Block (self = that proc), or a proc
// whose body just returned (self nil, onKernel false). Exactly one
// goroutine runs it at a time — the token is only ever passed through
// a channel handoff — so it may touch all kernel state lock-free.
//
// Running the dispatcher on whichever goroutine just yielded is the
// point: handing control from proc A to proc B costs one channel
// handoff (A→B) instead of two (A→kernel→B), pure callbacks between
// resumes run inline with no switch at all, and a proc that pops its
// own resume just keeps going. Event pop order is identical to a
// kernel-centric loop, so cycle counts are unchanged.
func (k *Kernel) dispatch(self *Proc, onKernel bool) dispatchOutcome {
	for {
		if k.err != nil || k.cbPanic != nil {
			return k.parkDispatch(onKernel)
		}
		if k.intrReason.Load() != nil {
			k.interruptHit = true
			return k.parkDispatch(onKernel)
		}
		if len(k.queue) == 0 {
			return k.parkDispatch(onKernel)
		}
		if k.stop != nil && k.stop() {
			k.stopHit = true
			return k.parkDispatch(onKernel)
		}
		ref := k.popRoot()
		s := &k.slots[ref.idx]
		p, fn := s.proc, s.fn
		if p == nil && fn == nil {
			// A stopped Timer: skip without advancing time, so cancelled
			// timeouts leave no trace in the cycle count.
			k.tombstones--
			k.freeSlot(ref.idx)
			continue
		}
		if ref.at > k.maxTime {
			k.deadlineHit, k.deadlineAt = true, ref.at
			return k.parkDispatch(onKernel)
		}
		k.now = ref.at
		// Free before firing: a fired timer cannot be stopped
		// retroactively (its handle's generation is now stale), and the
		// callback may immediately reuse the slot for a new event.
		k.freeSlot(ref.idx)
		k.fired++
		if p != nil {
			if p.finished {
				k.cbPanic = fmt.Sprintf("sim: resuming finished proc %q", p.name)
				return k.parkDispatch(onKernel)
			}
			if p == self {
				return dispatchSelf
			}
			if !p.started {
				p.started = true
				go p.main()
			}
			p.cont <- struct{}{}
			return dispatchHandoff
		}
		if !k.fire(fn) {
			return k.parkDispatch(onKernel)
		}
	}
}

// fire runs a callback, trapping a panic into cbPanic (re-panicked by
// Run) so a buggy callback fails identically whichever goroutine held
// the token. Reports whether the callback completed.
func (k *Kernel) fire(fn func()) (ok bool) {
	ok = true
	defer func() {
		if r := recover(); r != nil {
			k.cbPanic = r
			ok = false
		}
	}()
	fn()
	return
}

// parkDispatch ends a dispatch on a run-level condition: a dispatcher
// on a proc goroutine signals the kernel goroutine awake; the kernel
// goroutine just returns to Run, which owns the condition handling.
func (k *Kernel) parkDispatch(onKernel bool) dispatchOutcome {
	if !onKernel {
		k.done <- struct{}{}
	}
	return dispatchStopped
}

// Run processes events until the queue is empty or stop returns true.
// stop is checked between events and may be nil. It returns an error if
// the deadline was exceeded or if Procs remain unfinished when the event
// queue drains (a simulated-software deadlock).
func (k *Kernel) Run(stop func() bool) error {
	k.stop = stop
	defer func() { k.stop = nil }()
	for {
		if k.dispatch(nil, true) == dispatchHandoff {
			// The token is circulating among proc goroutines; park until
			// a dispatcher hits a run-level condition.
			<-k.done
		}
		if v := k.cbPanic; v != nil {
			k.cbPanic = nil
			panic(v)
		}
		if k.err != nil {
			return k.err
		}
		if k.stopHit {
			k.stopHit = false
			return nil
		}
		if k.deadlineHit {
			k.deadlineHit = false
			return k.watchdogErr(fmt.Sprintf(
				"deadline %d cycles exceeded (next event at %d)", k.maxTime, k.deadlineAt))
		}
		if k.interruptHit {
			k.interruptHit = false
			reason := *k.intrReason.Swap(nil)
			return k.watchdogErr("interrupted: " + reason)
		}
		if len(k.queue) == 0 {
			break
		}
	}
	for _, p := range k.procs {
		if !p.finished {
			return k.watchdogErr("deadlock: event queue empty with unfinished procs")
		}
	}
	return nil
}

// AddDumpHook registers a diagnostic writer invoked by DumpState after
// the kernel's own report. Higher layers use it to append subsystem
// state (ULI units, work-stealing deques) to watchdog errors.
func (k *Kernel) AddDumpHook(fn func(io.Writer)) {
	k.dumpHooks = append(k.dumpHooks, fn)
}

// DumpState writes a diagnostic snapshot: current cycle, event-queue
// size, per-proc progress (every unfinished proc with the cycle it last
// yielded at), then any registered dump hooks.
func (k *Kernel) DumpState(w io.Writer) {
	finished := 0
	for _, p := range k.procs {
		if p.finished {
			finished++
		}
	}
	fmt.Fprintf(w, "kernel: cycle=%d queued-events=%d (%d cancelled) procs=%d/%d finished\n",
		k.now, len(k.queue)-k.tombstones, k.tombstones, finished, len(k.procs))
	for _, p := range k.procs {
		if p.finished {
			continue
		}
		state := "blocked"
		if !p.started {
			state = "never started"
		}
		fmt.Fprintf(w, "  proc %q: %s since cycle %d\n", p.name, state, p.blockedSince)
	}
	for _, fn := range k.dumpHooks {
		fn(w)
	}
}

// watchdogErr builds the watchdog failure error: the cause followed by
// the full DumpState report, so a deadline or deadlock names the stuck
// procs and whatever subsystem state the machine layer registered.
func (k *Kernel) watchdogErr(cause string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s\n", cause)
	k.DumpState(&b)
	return errors.New(strings.TrimRight(b.String(), "\n"))
}
