// Package sim provides the discrete-event simulation kernel used by every
// timing model in this repository: a cycle clock, a deterministic event
// queue, and reproducible pseudo-random number streams.
//
// All simulators in this project (mesh network, caches, token coherence,
// hypervisor scheduler) are built as event handlers scheduled on a single
// Engine. Determinism is guaranteed: events at the same cycle fire in
// schedule order, and all randomness flows from explicitly seeded Rand
// streams, so a run is a pure function of its configuration.
package sim

import (
	"fmt"
)

// Cycle is a point in simulated time, measured in clock cycles.
type Cycle uint64

// HandlerFn is the prebound-handler form of an event: a function created
// once (at component construction) whose per-event state rides in the
// event itself as (arg, u). Scheduling one allocates nothing.
type HandlerFn func(arg interface{}, u uint64)

// event is one queue entry. Exactly one of fn / fn2 is set: fn is the
// closure form (allocates a closure at the call site), fn2 the prebound
// form (zero-alloc). Events live inline in the queue's slab (see
// queue.go) — there is no per-event heap object and no interface boxing on
// push or pop.
type event struct {
	at  Cycle
	key uint64 // tie-breaker: schedule order (domain-prefixed in domain mode)
	dom int32  // executing domain (0 in single-domain engines)
	fn  func()
	fn2 HandlerFn
	arg interface{}
	u   uint64
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// The queue is a calendar wheel of per-cycle buckets with a 4-ary min-heap
// for events due far ahead (see queue.go).
type Engine struct {
	now   Cycle
	seq   uint64
	q     queue
	fired uint64

	// Domain mode (SetDomains): events carry an executing domain and
	// schedule-order keys are drawn from per-domain counters, so the tie
	// order is independent of how domains are spread over engines. domSeq
	// is nil in single-domain (legacy) mode, where key == seq exactly.
	domSeq []uint64
	curDom int32

	// Sharded mode (SetShard): owner[d] is the shard that executes domain
	// d and shard is this engine's own index. An event bound to another
	// shard's domain is staged in out[owner[d]] and handed over in one
	// batch per synchronization round (ShardedEngine.flush). owner is nil
	// when every domain executes here.
	owner []int32
	shard int32
	out   [][]event

	// No-forward-progress watchdog: when progressLimit > 0, StepChecked
	// fails after that many events fire without a Progress() mark, turning a
	// protocol livelock into a diagnosable error instead of a hang.
	progressLimit uint64
	sinceProgress uint64

	// cancel, when non-nil, is polled by StepChecked every cancelPollMask+1
	// events: a tripped Canceler turns into a CanceledError at the next poll,
	// so a dead client or an admin abort stops the run promptly without
	// adding per-event cost to the uncancelled hot path.
	cancel *Canceler
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.q.len() }

// schedulePastPanic is the cold failure path shared by the Schedule
// variants. It exists so the fmt call (which allocates) stays out of the
// annotated hot functions.
func schedulePastPanic(at, now Cycle) {
	panic(fmt.Sprintf("sim: schedule at %d before now %d", at, now))
}

// Schedule runs fn after delay cycles (delay 0 means later this cycle,
// after all currently queued same-cycle events).
//
//vsnoop:hotpath
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute cycle, which must not be in the
// past.
//
//vsnoop:hotpath
func (e *Engine) ScheduleAt(at Cycle, fn func()) {
	if at < e.now {
		schedulePastPanic(at, e.now)
	}
	e.insert(at, e.curDom, fn, nil, nil, 0)
}

// ScheduleFn runs fn(arg, u) after delay cycles. It is the zero-alloc
// fast path for hot schedulers: fn is prebound once at construction time
// and the per-event state travels in (arg, u), so nothing escapes to the
// heap (arg should be nil, an already-boxed interface value, or a
// pointer; u packs any scalar state).
//
//vsnoop:hotpath
func (e *Engine) ScheduleFn(delay Cycle, fn HandlerFn, arg interface{}, u uint64) {
	e.ScheduleFnAt(e.now+delay, fn, arg, u)
}

// ScheduleFnAt is ScheduleFn with an absolute cycle, which must not be in
// the past.
//
//vsnoop:hotpath
func (e *Engine) ScheduleFnAt(at Cycle, fn HandlerFn, arg interface{}, u uint64) {
	if at < e.now {
		schedulePastPanic(at, e.now)
	}
	e.insert(at, e.curDom, nil, fn, arg, u)
}

// ScheduleFnAtDom is ScheduleFnAt with an explicit executing domain: the
// event fires in domain dom's event stream (possibly on another engine when
// domains are sharded) while its tie-break key still comes from the current
// scheduling domain's counter, keeping the order reproducible for any
// domain-to-engine assignment. The mesh uses it for cross-domain delivery.
//
//vsnoop:hotpath
func (e *Engine) ScheduleFnAtDom(at Cycle, dom int32, fn HandlerFn, arg interface{}, u uint64) {
	if at < e.now {
		schedulePastPanic(at, e.now)
	}
	e.insert(at, dom, nil, fn, arg, u)
}

// nextKey draws the next tie-break key: the global schedule counter in
// single-domain mode (key == legacy seq, bit-identical ordering), or the
// current domain's counter prefixed with the domain index in domain mode.
//
//vsnoop:hotpath
func (e *Engine) nextKey() uint64 {
	if e.domSeq == nil {
		e.seq++
		return e.seq
	}
	d := e.curDom
	e.domSeq[d]++
	return uint64(d)<<48 | e.domSeq[d]
}

// insert draws the event's tie-break key and queues it locally, or stages
// it in the owning shard's outbox when its executing domain lives on
// another engine. Wheel-bound and staged events are written field by
// field straight into their slot: building a 64-byte event and passing it
// down by value costs a store-forwarding stall per schedule.
//
//vsnoop:hotpath
func (e *Engine) insert(at Cycle, dom int32, fn func(), fn2 HandlerFn, arg interface{}, u uint64) {
	key := e.nextKey()
	switch {
	case e.owner != nil && e.owner[dom] != e.shard:
		dst := e.owner[dom]
		e.out[dst] = append(e.out[dst], event{})
		ev := &e.out[dst][len(e.out[dst])-1]
		ev.at, ev.key, ev.dom, ev.fn, ev.fn2, ev.arg, ev.u = at, key, dom, fn, fn2, arg, u
	case !inWheel(at, e.now):
		e.q.heapPush(event{at: at, key: key, dom: dom, fn: fn, fn2: fn2, arg: arg, u: u})
	default:
		ev := e.q.link(at, key)
		ev.dom, ev.fn, ev.fn2, ev.arg, ev.u = dom, fn, fn2, arg, u
	}
}

// SetDomains switches the engine to domain mode with nd domains, all
// executed here. Call before any event is scheduled.
func (e *Engine) SetDomains(nd int) {
	if nd <= 1 {
		return
	}
	e.domSeq = make([]uint64, nd)
}

// SetShard makes the engine shard self of a sharded engine: owner[d] is
// the shard that executes domain d (len(owner) domains, shards dense from
// 0), and events bound to another shard's domain are staged in that
// shard's outbox instead of the local queue. Call before any event is
// scheduled.
func (e *Engine) SetShard(owner []int32, self int32, shards int) {
	e.SetDomains(len(owner))
	if e.domSeq == nil || shards <= 1 {
		return
	}
	e.owner, e.shard = owner, self
	e.out = make([][]event, shards)
}

// SetCurDomain sets the scheduling domain used for events scheduled outside
// any event handler (machine setup); during execution Step maintains it.
func (e *Engine) SetCurDomain(d int32) { e.curDom = d }

// push queues an already-keyed event (a drained deposit) on this engine.
func (e *Engine) push(ev *event) { e.q.push(ev, e.now) }

// Step executes the next event, advancing the clock to its cycle. It
// returns false when no events remain.
//
//vsnoop:hotpath
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	// Read the event out field by field and drop the node's references
	// before the handler runs (it may schedule into the same node).
	ev := e.q.pop(e.now)
	fn, fn2, arg, u := ev.fn, ev.fn2, ev.arg, ev.u
	e.now = ev.at
	e.curDom = ev.dom
	ev.fn, ev.fn2, ev.arg = nil, nil, nil
	e.fired++
	if fn2 != nil {
		fn2(arg, u)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// StepLimitError reports that a bounded run exhausted its event budget with
// work still queued.
type StepLimitError struct {
	Limit   uint64 // the budget that was exhausted
	Now     Cycle  // simulated time at exhaustion
	Pending int    // events still queued
}

func (e *StepLimitError) Error() string {
	return fmt.Sprintf("sim: step budget %d exhausted at cycle %d with %d events pending (livelock or undersized budget)",
		e.Limit, e.Now, e.Pending)
}

// NoProgressError reports that the watchdog saw too many events fire without
// a Progress() mark — the signature of a protocol livelock (events keep
// firing but no externally visible work completes).
type NoProgressError struct {
	Limit   uint64 // events allowed between Progress() marks
	Now     Cycle  // simulated time at the trip
	Pending int    // events still queued
}

func (e *NoProgressError) Error() string {
	return fmt.Sprintf("sim: watchdog tripped at cycle %d: %d events fired without forward progress (%d pending)",
		e.Now, e.Limit, e.Pending)
}

// SetCancel attaches a Canceler polled by StepChecked; nil detaches. The
// caller may trip the Canceler from any goroutine (it is a single atomic
// word) — the engine notices at the next poll boundary and fails the run
// with a CanceledError.
func (e *Engine) SetCancel(c *Canceler) { e.cancel = c }

// SetProgressLimit arms the no-forward-progress watchdog: StepChecked fails
// once limit events fire without an intervening Progress() call. 0 disarms.
func (e *Engine) SetProgressLimit(limit uint64) {
	e.progressLimit = limit
	e.sinceProgress = 0
}

// Progress marks forward progress (e.g. a completed memory reference),
// resetting the watchdog.
func (e *Engine) Progress() { e.sinceProgress = 0 }

// cancelPollMask sets the cancellation poll period: StepChecked consults
// the Canceler once every mask+1 executed events. 256 events is a few
// microseconds of simulation — prompt for any caller — while keeping the
// atomic load off almost every step.
const cancelPollMask = 255

// StepChecked executes the next event like Step, but fails with a
// NoProgressError when the watchdog limit is exceeded or a CanceledError
// when an attached Canceler has tripped.
func (e *Engine) StepChecked() (bool, error) {
	if e.progressLimit > 0 && e.sinceProgress >= e.progressLimit {
		return false, &NoProgressError{Limit: e.progressLimit, Now: e.now, Pending: e.q.len()}
	}
	if e.cancel != nil && e.fired&cancelPollMask == 0 && e.cancel.Canceled() {
		return false, &CanceledError{Now: e.now, Pending: e.q.len()}
	}
	if !e.Step() {
		return false, nil
	}
	e.sinceProgress++
	return true, nil
}

// RunBoundedSteps executes events until the queue is empty, failing with a
// StepLimitError if more than max events would be needed (or a
// NoProgressError if the watchdog trips first). It is the hang-proof
// replacement for Run in command-line drivers.
func (e *Engine) RunBoundedSteps(max uint64) error {
	for i := uint64(0); i < max; i++ {
		ok, err := e.StepChecked()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	if e.q.len() == 0 {
		return nil
	}
	return &StepLimitError{Limit: max, Now: e.now, Pending: e.q.len()}
}

// RunUntil executes events with timestamps <= limit, then stops. The clock
// is left at the timestamp of the last executed event (or limit if the
// queue drained earlier than limit and AdvanceTo semantics are not needed).
func (e *Engine) RunUntil(limit Cycle) {
	for {
		at, ok := e.q.peek(e.now)
		if !ok || at > limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
}

// RunFor executes events for the next d cycles (relative RunUntil).
func (e *Engine) RunFor(d Cycle) { e.RunUntil(e.now + d) }

// NextAt returns the timestamp of the earliest pending event; ok is false
// when the queue is empty. Conservative window synchronization uses it to
// compute the global lower bound on future work.
func (e *Engine) NextAt() (Cycle, bool) {
	return e.q.peek(e.now)
}

// RunWindow executes events with timestamps strictly below wend under the
// watchdog, leaving later events queued. It is one shard's work for one
// conservative synchronization window.
func (e *Engine) RunWindow(wend Cycle) error {
	for {
		at, ok := e.q.peek(e.now)
		if !ok || at >= wend {
			return nil
		}
		if _, err := e.StepChecked(); err != nil {
			return err
		}
	}
}
