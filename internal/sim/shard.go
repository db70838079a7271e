package sim

import (
	"math"
	"runtime"
	"sync/atomic"

	"vsnoop/internal/prof"
	"vsnoop/internal/runner"
)

// infCycle marks "no pending work" in window-minimum folds.
const infCycle = Cycle(math.MaxUint64)

// spinPolls caps the polls of one wait before it yields. It is fixed:
// nothing in the engine reads the host's processor count.
const spinPolls = 1024

// parkedCount is a count padded onto its own cache line: every spin poll
// loads it, so it must not share a line with words other shards write.
type parkedCount struct {
	_ [64]byte
	n atomic.Int32 //lint:shardsafe scheduling hint shared by every engine in the process; no simulation state reads it
	_ [60]byte
}

// parked counts the shard goroutines, of every sharded engine in the
// process, that are inside a yield (waiter.yield): runnable, but waiting
// for a processor. It is process-wide because engines that run side by
// side (an experiment pool, the serve workers) share the processors: a
// count per engine would not see another engine's waiting shards, and its
// waits would spin out their full bound.
var parked parkedCount

// waiter is the one wait primitive of the sharded engine: the adaptive
// no-progress wait, the barrier wait and the mailbox spinlock all go
// through pause. A waiter belongs to one shard goroutine, so its count is
// a plain field.
type waiter struct {
	yields uint64 // scheduler yields taken (SyncStats.Yields)
}

// pause polls ready and reports true as soon as it holds. It polls at
// least once and at most spinPolls times; then it yields the processor
// once and reports false, leaving the caller to re-examine its state. It
// stops polling early while any shard in the process is parked in a
// yield: that shard is runnable but has no processor, so this one is
// better given to it than spent polling for a peer that may be the one
// without a processor.
func (w *waiter) pause(ready func() bool) bool {
	for i := 0; i < spinPolls; i++ {
		if ready() {
			return true
		}
		if parked.n.Load() != 0 {
			break
		}
	}
	w.yield()
	return false
}

// yield gives the processor up, counted in parked for as long as the
// shard is off its processor.
func (w *waiter) yield() {
	w.yields++
	parked.n.Add(1)
	runtime.Gosched()
	parked.n.Add(-1)
}

// until blocks until ready holds.
func (w *waiter) until(ready func() bool) {
	for !w.pause(ready) {
	}
}

// lock acquires the spinlock word l (0 free, 1 held).
func (w *waiter) lock(l *atomic.Uint32) {
	w.until(func() bool { return l.Load() == 0 && l.CompareAndSwap(0, 1) })
}

// barrier is a sense-reversing central barrier for a handful of shard
// goroutines. The last arriver runs the leader closure (single-threaded:
// everyone else is waiting) and then releases the generation; the atomic
// generation publish orders the leader's plain writes before the waiters'
// reads, so window state needs no further synchronization.
type barrier struct {
	arrived atomic.Int32
	gen     atomic.Uint32
}

func (b *barrier) wait(k int32, leader func(), w *waiter) {
	g := b.gen.Load()
	if b.arrived.Add(1) == k {
		b.arrived.Store(0)
		if leader != nil {
			leader()
		}
		b.gen.Add(1)
		return
	}
	w.until(func() bool { return b.gen.Load() != g })
}

// ShardedEngine runs a domain-partitioned simulation on K event queues —
// one Engine per shard, each on its own goroutine — under conservative
// synchronization. Because every event carries a (scheduling domain,
// per-domain order) key, results are bit-identical for any shard count and
// either synchronization mode, including K=1.
//
// Two modes share the engine:
//
//   - Windowed (used whenever something observes window boundaries: an
//     OnWindow hook or a step bound, or when Windowed or DisableElision is
//     set): all shards execute events inside the global window
//     [w, w+lookahead), meet at barrier A, exchange cross-shard events
//     through the mailboxes, and the barrier-B leader advances the window
//     to the global minimum pending timestamp. When a window produced no
//     cross-shard deposits the barrier-A leader folds immediately and
//     every shard skips the drain and barrier B — one barrier per quiet
//     window instead of two.
//
//   - Adaptive free-running (the default for K >= 2 with nothing observing
//     boundaries): no barriers at all; each shard advances under the
//     null-message horizon protocol in adaptive.go, with windows stretching
//     to the actual distance of pending cross-domain work.
//
// The lookahead must be a lower bound on the latency of any cross-shard
// event (for the mesh: the minimum cross-domain link latency), so events
// deposited during a window always land at or beyond the window end.
type ShardedEngine struct {
	engs      []*Engine
	domShard  []int // domain -> shard
	k         int
	lookahead Cycle

	// srcLook[s] is the adaptive-mode output lookahead of shard s: a lower
	// bound on the latency of any cross-shard event originating in one of
	// s's domains. Defaults to the global lookahead; SetDomainLookahead
	// tightens it from per-domain mesh horizons.
	srcLook []Cycle

	// sh[s] is shard s's padded hot synchronization state (adaptive.go).
	sh []shardSlot

	// boxes[src*k+dst] holds events deposited by shard src for shard dst.
	// In windowed mode deliveries happen before barrier A and drains after
	// it, so the spinlock is uncontended; in adaptive mode the lock and the
	// EOT protocol order them.
	boxes []mailbox

	// deposited/drained/busy are the global termination counters of the
	// adaptive mode (see the protocol comment in adaptive.go): deposited
	// is raised by each flushed batch before its mailbox append, drained
	// after a consumer has pushed a drain's events, and busy tracks how
	// many shards may still execute or deposit. An idle shard exits only
	// after a double collect sees busy == 0 bracketed by matching
	// deposited/drained. The windowed barrier-A leader reads deposited too,
	// to tell a quiet window from one with exchange work.
	deposited atomic.Uint64
	drained   atomic.Uint64
	busy      atomic.Int64

	// stop aborts the adaptive free-run: set by the first shard to fail,
	// polled by every shard each round.
	stop atomic.Uint32

	// errs[s] is shard s's window error, published before barrier A (the
	// elision leader may fold there).
	errs []error

	// Window state, written only by the barrier leader while all other
	// shards spin (windowed mode), or by the fold after the adaptive run.
	w, wend Cycle
	done    bool
	skipB   bool // leader decision: this window's drain + barrier B elided
	err     error
	fired   uint64
	tele    SyncStats

	barA, barB barrier

	// Windowed pins the fully synchronized windowed protocol (with
	// quiet-window barrier elision) instead of the adaptive free-run.
	// Results are bit-identical either way. Set before Run.
	Windowed bool

	// DisableElision forces the fully-barriered windowed protocol even
	// when nothing observes window boundaries: no adaptive free-running,
	// no quiet-window barrier elision. Results are bit-identical either
	// way; the flag exists so tests and benchmarks can pin the mode.
	DisableElision bool

	// MaxSteps, when nonzero, bounds the total events executed across all
	// shards; the run fails with a StepLimitError at the first window
	// boundary at or past the bound (window granularity keeps the trigger
	// point independent of the shard count).
	MaxSteps uint64

	// OnWindow, if set, runs on the barrier leader at every window
	// advance, with every shard quiesced at exactly cycle now (all events
	// below now executed, none at or above). Invariant checkers hook here.
	// A non-nil error aborts the run.
	OnWindow func(now Cycle) error
}

// NewSharded builds a sharded engine for nd domains with the given
// domain-to-shard assignment (len nd, shard indices dense from 0) and
// lookahead. Components must be wired to Eng(domShard[d]) for their domain.
func NewSharded(domShard []int, lookahead Cycle) *ShardedEngine {
	k := 0
	for _, s := range domShard {
		if s+1 > k {
			k = s + 1
		}
	}
	se := &ShardedEngine{
		domShard:  domShard,
		k:         k,
		lookahead: lookahead,
		srcLook:   make([]Cycle, k),
		sh:        make([]shardSlot, k),
		engs:      make([]*Engine, k),
		boxes:     make([]mailbox, k*k),
		errs:      make([]error, k),
	}
	owner := make([]int32, len(domShard))
	for d, sh := range domShard {
		owner[d] = int32(sh)
	}
	for s := 0; s < k; s++ {
		se.srcLook[s] = lookahead
		se.engs[s] = NewEngine()
		se.engs[s].SetShard(owner, int32(s), k)
	}
	return se
}

// Eng returns shard s's engine.
func (se *ShardedEngine) Eng(s int) *Engine { return se.engs[s] }

// Shards returns the shard count K.
func (se *ShardedEngine) Shards() int { return se.k }

// Fired returns the total events executed across all shards (valid after
// Run returns).
func (se *ShardedEngine) Fired() uint64 { return se.fired }

// Now returns the final window cycle (valid after Run returns).
func (se *ShardedEngine) Now() Cycle { return se.w }

// Telemetry returns the synchronization counters of the last Run.
func (se *ShardedEngine) Telemetry() SyncStats { return se.tele }

// SetProgressLimit arms every shard's no-forward-progress watchdog.
func (se *ShardedEngine) SetProgressLimit(limit uint64) {
	for _, e := range se.engs {
		e.SetProgressLimit(limit)
	}
}

// SetCancel attaches one Canceler to every shard engine. The first shard to
// observe the trip fails its window with a CanceledError; the existing
// error paths (fold in windowed mode, the stop flag in adaptive mode) then
// bring the remaining shards down promptly.
func (se *ShardedEngine) SetCancel(c *Canceler) {
	for _, e := range se.engs {
		e.SetCancel(c)
	}
}

// SetDomainLookahead tightens the adaptive-mode output lookahead from
// per-domain horizons: horizon[d] must lower-bound the latency of any
// cross-domain event originating in domain d. Shard s's lookahead becomes
// the minimum over its domains; entries of zero (or a shard with no
// domains) fall back to the global lookahead. The windowed protocol keeps
// the global lookahead so its window-boundary sequence — and with it every
// OnWindow observation — stays independent of the partition geometry.
func (se *ShardedEngine) SetDomainLookahead(horizon []Cycle) {
	for s := 0; s < se.k; s++ {
		la := infCycle
		for d, sh := range se.domShard {
			if sh == s && d < len(horizon) && horizon[d] < la {
				la = horizon[d]
			}
		}
		if la == infCycle || la == 0 {
			la = se.lookahead
		}
		se.srcLook[s] = la
	}
}

// Run executes all queued work to quiescence (or error). With K=1 it runs
// inline on the caller's goroutine — the degenerate serial case, whose
// results (and, in windowed mode, OnWindow callbacks) are identical to any
// K>1 run in either synchronization mode.
func (se *ShardedEngine) Run() error {
	se.w, se.wend = 0, 0 // round 0 executes nothing and seeds the window
	se.done, se.err, se.skipB = false, nil, false
	se.tele = SyncStats{}
	se.stop.Store(0)
	se.deposited.Store(0)
	se.drained.Store(0)
	se.busy.Store(int64(se.k))
	for s := range se.sh {
		se.sh[s] = shardSlot{}
		se.errs[s] = nil
	}
	switch {
	case se.k == 1:
		// The degenerate serial case covers every mode: one shard owns all
		// domains.
		se.runSerial()
	case se.OnWindow != nil || se.MaxSteps > 0 || se.DisableElision || se.Windowed:
		// Something observes window boundaries (or windowed is pinned):
		// run the fully synchronized protocol.
		runner.Map(se.k, se.k, func(s int) struct{} {
			prof.Do(s, "shard-loop", func() { se.runShard(s) })
			return struct{}{}
		})
	default:
		se.runAdaptiveAll()
	}
	se.fired = 0
	for s, e := range se.engs {
		se.fired += e.Fired()
		se.tele.Yields += se.sh[s].wait.yields
	}
	return se.err
}

// runSerial is the K=1 path. A single shard owns every domain, so deposits
// never happen and both barriers are no-ops; all that remains of the window
// protocol is the fold bookkeeping. When nothing observes window boundaries
// (no OnWindow hook, no step bound) even that folds away and the run is one
// plain queue drain — zero overhead versus the unsharded engine, with the
// same event order: a single queue pops by (domain, seq) key regardless of
// where windows would have fallen.
func (se *ShardedEngine) runSerial() {
	eng := se.engs[0]
	if se.OnWindow == nil && se.MaxSteps == 0 {
		se.err = eng.RunWindow(infCycle)
		se.w = eng.Now()
		if eng.Fired() > 0 {
			se.tele = SyncStats{Windows: 1, WindowWidthSum: uint64(se.w)}
		}
		return
	}
	for {
		se.errs[0] = eng.RunWindow(se.wend)
		se.fold()
		if se.done {
			return
		}
	}
}

// flush hands shard s's staged cross-shard events to their mailboxes, one
// batch per destination: count the batch into deposited, then append it
// under the box lock. Counting first keeps the adaptive termination
// collect from ever reading a drained total that covers an uncounted
// deposit.
func (se *ShardedEngine) flush(s int) {
	out := se.engs[s].out
	w := &se.sh[s].wait
	for dst, batch := range out {
		if len(batch) == 0 {
			continue
		}
		se.deposited.Add(uint64(len(batch)))
		out[dst] = se.boxes[s*se.k+dst].deliver(batch, w)
	}
}

// runAdaptiveAll drives the free-running adaptive mode (adaptive.go) and
// folds its per-shard outcome deterministically afterwards.
func (se *ShardedEngine) runAdaptiveAll() {
	runner.Map(se.k, se.k, func(s int) struct{} {
		prof.Do(s, "shard-adaptive", func() { se.runAdaptive(s) })
		return struct{}{}
	})
	for s := 0; s < se.k; s++ {
		if se.errs[s] != nil {
			se.err = se.errs[s]
			break
		}
	}
	w := Cycle(0)
	for s := range se.engs {
		if now := se.engs[s].Now(); now > w {
			w = now
		}
		st := &se.sh[s]
		se.tele.Windows += st.windows
		se.tele.WindowWidthSum += st.widthSum
		se.tele.ElidedBarriers += st.elided
	}
	se.w = w
	se.tele.CrossDeposits = se.deposited.Load()
}

func (se *ShardedEngine) runShard(s int) {
	eng := se.engs[s]
	k := int32(se.k)
	w := &se.sh[s].wait
	for {
		// Publish the window error before barrier A: the elision leader
		// may fold there, and the barrier orders the write.
		se.errs[s] = eng.RunWindow(se.wend)
		se.flush(s)
		// Barrier A: after it, every deposit of this window is in its
		// mailbox and no shard is executing. The leader decides whether
		// the exchange (drain + barrier B) is needed at all.
		se.barA.wait(k, se.leadA, w)
		if !se.skipB {
			for src := 0; src < se.k; src++ {
				se.boxes[src*se.k+s].drain(eng, w)
			}
			// Barrier B: the leader folds errors, checks bounds, and
			// advances the window to the global minimum pending timestamp.
			se.barB.wait(k, se.leadB, w)
		}
		if se.done {
			return
		}
	}
}

// leadA runs on the barrier-A leader with every shard quiesced and
// flushed. If the deposited counter did not move this window, the
// mailboxes are all empty and the drain plus barrier B buy nothing: fold
// here and let everyone skip straight to the next window.
func (se *ShardedEngine) leadA() {
	se.tele.BarrierWaits += uint64(se.k)
	dep := se.deposited.Load() - se.tele.CrossDeposits
	se.tele.CrossDeposits += dep
	if dep == 0 && !se.DisableElision {
		se.skipB = true
		se.tele.ElidedBarriers++
		se.fold()
		return
	}
	se.skipB = false
}

// leadB runs on the barrier-B leader of a non-elided window.
func (se *ShardedEngine) leadB() {
	se.tele.BarrierWaits += uint64(se.k)
	se.fold()
}

// fold advances the window with every shard quiesced and drained. It runs
// single-threaded on a barrier leader (or inline for K=1); the barrier
// generation publish orders its plain writes for the other shards.
func (se *ShardedEngine) fold() {
	var ferr error
	for s := 0; s < se.k; s++ {
		if se.errs[s] != nil {
			ferr = se.errs[s]
			break
		}
	}
	var total uint64
	m := infCycle
	pending := 0
	for _, e := range se.engs {
		total += e.Fired()
		pending += e.Pending()
		if at, ok := e.NextAt(); ok && at < m {
			m = at
		}
	}
	if ferr == nil && se.MaxSteps > 0 && total >= se.MaxSteps && pending > 0 {
		ferr = &StepLimitError{Limit: se.MaxSteps, Now: se.w, Pending: pending}
	}
	if ferr != nil {
		se.err = ferr
		se.done = true
		return
	}
	if m == infCycle {
		se.done = true
		return
	}
	if se.OnWindow != nil {
		if err := se.OnWindow(m); err != nil {
			se.err = err
			se.done = true
			return
		}
	}
	if m > se.w {
		se.tele.Windows++
		se.tele.WindowWidthSum += uint64(m - se.w)
	}
	se.w, se.wend = m, m+se.lookahead
}
