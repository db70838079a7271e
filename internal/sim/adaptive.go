package sim

import "sync/atomic"

// This file implements the free-running adaptive synchronization mode of the
// ShardedEngine: a conservative null-message protocol (Chandy-Misra-Bryant
// with lookahead) over the per-shard event queues, with no barriers at all.
//
// Each shard publishes an *earliest output time* (EOT): a monotone lower
// bound on the timestamp of any cross-shard event it may still deposit,
//
//	eot[s] = L_s + min(next local event of s, min over s' != s of eot[s'])
//
// where L_s is shard s's minimum cross-domain mesh latency (the partition
// horizon exposed by mesh.Partition). A shard may freely execute every local
// event strictly below its *earliest input time* EIT_s = min_{s'!=s} eot[s'],
// because any deposit still unseen must arrive at or beyond that bound.
// Windows therefore stretch with the actual distance to pending cross-domain
// work — thousands of cycles when domains run independently — instead of
// being fixed at the worst-case mesh latency, and no shard ever waits for a
// laggard unless the timestamp math forces it to.
//
// Why skipping every barrier cannot reorder an observable event: the queue
// pop order of one shard is a strict total order on (cycle, domain-seq key),
// a pure function of the event *set*. A deposit is pushed before its shard
// executes past the deposit's timestamp (the EIT bound above), so each
// shard's executed sequence — and with it every statistic — is the one the
// serial engine produces.
//
// Deposits are batched per round: while a shard executes, every event it
// schedules for a foreign domain is staged in its engine's outbox for the
// owning shard (Engine.insert), and flush hands each non-empty outbox to
// its (src, dst) mailbox in one locked append after the round's execution.
// The memory-order argument for the bound has three legs, each
// load-acquire/store-release via the atomics below:
//
//  1. EOTs are monotone (standard CMB induction: local events below the old
//     bound are gone, arrivals carry at least the old bound).
//  2. A reader loads eot[src] *before* draining box[src]: any batch the
//     drain misses was flushed after the loaded EOT was published (leg
//     3), so it belongs to a later round of src, whose execution starts at
//     or above eot - L. Every event of that batch was scheduled by that
//     execution at least L ahead, so it arrives >= the loaded EOT.
//  3. The producer publishes its EOT only after the round's flush, so
//     "visible EOT" never runs ahead of mailbox state: nothing a round
//     produced is still sitting in an outbox when its EOT is visible.
//
// EOTs stay finite forever: an empty shard publishes eit + L, not
// infinity, because a later arrival could still induce output (publishing
// infinity would let a peer run past that induced output). Quiescent
// shards therefore ratchet each other's EOTs upward without end, and
// termination needs its own detector — a Dijkstra-style double collect
// over three monotone/balanced global counters:
//
//   - deposited: raised by a batch's length BEFORE the batch is appended
//     to its mailbox (one Add per non-empty outbox per round), so a
//     drained total can never cover an uncounted deposit;
//   - drained:   incremented AFTER a drain's events are in the queue;
//   - busy:      the number of shards that may still execute or deposit.
//     Starts at K; a shard decrements when it runs out of local events
//     (after the round's flush has counted its deposits) and increments
//     when a drain hands it new work, BEFORE that drain's
//     drained-increment.
//
// An idle shard exits iff it reads d1 := drained, then busy == 0, then
// deposited == d1. Soundness (sync/atomic ops are sequentially
// consistent): d1 == deposited with drained read first means every
// deposit counted by the second read was already drained by the first —
// nothing is in flight. busy == 0 between the two reads means every
// shard's last visible transition was to idle; a shard waking afterwards
// must first drain a deposit, and that deposit's increments either land
// before the collect (making it fail) or constitute a deposit after the
// collect, which inductively requires yet another waker before it — a
// regress that bottoms out in a contradiction. See TestAdaptive* for the
// executable version of this argument.
//
// A round that executes nothing waits through the shard's waiter
// (shard.go) until a peer's EOTs lift the horizon, an inbound mailbox
// fills, or the run stops. Idle shards cannot keep each other awake while
// a shard with work waits for a processor: every horizon is a minimum
// over the peers' EOTs, the waiting shard's EOT is frozen, and every other
// EOT is at most its own horizon plus L, so the running shards reach a
// horizon they cannot pass within a few rounds, and the events they can
// still deposit are the finitely many below it. Their wake conditions then
// fail, and each wait yields after at most spinPolls polls.

// shardSlot is one shard's hot synchronization state, padded so two shards
// never share a cache line (the EOT word is stored/loaded on every round).
type shardSlot struct {
	// eot is the published earliest-output-time (adaptive mode only).
	// Always finite: even an empty shard could be handed work whose
	// processing deposits output.
	eot atomic.Uint64

	// wait is the shard's wait primitive and its yield count.
	wait waiter

	// Telemetry, folded into SyncStats after the run.
	windows  uint64
	widthSum uint64
	elided   uint64
	mark     Cycle // end of the last accounted execution stretch

	_ [2]uint64 // pad to 64 bytes
}

// mailbox is one (src shard, dst shard) deposit channel: a spinlocked,
// reusable flat slice. deliver appends a producer's whole round of staged
// events under the lock; drain empties the whole batch into the
// destination queue in one pass, keeping the backing array — zero
// steady-state allocations (gated by TestMailboxZeroAllocSteadyState).
// A growable slice (not a bounded ring) is deliberate: a producer must never
// block on mailbox capacity while its consumer waits on the producer's EOT.
type mailbox struct {
	lock  atomic.Uint32
	n     atomic.Int32 // published length; lets drain skip empty boxes
	items []event
	_     [4]uint64 // pad to 64 bytes
}

// deliver appends a staged batch to the box and returns an empty buffer
// for the producer's next round. An empty box swaps arrays with the batch
// (nothing is copied; the producer gets back the array the last drain
// emptied and zeroed); otherwise the batch is copied in and its own array
// cleared. The lock is uncontended in windowed mode (deliveries and drains
// are on opposite sides of a barrier) and short in adaptive mode (the
// holder only appends, swaps or drains).
func (mb *mailbox) deliver(batch []event, w *waiter) []event {
	w.lock(&mb.lock)
	if len(mb.items) == 0 {
		mb.items, batch = batch, mb.items
	} else {
		mb.items = append(mb.items, batch...)
	}
	mb.n.Store(int32(len(mb.items)))
	mb.lock.Store(0)
	clear(batch)
	return batch[:0]
}

// drain pushes every deposited event into eng's queue and empties the box,
// returning the count. The cheap n probe makes empty boxes (the common case
// when domains run independently) cost one atomic load and no lock; a
// delivery racing past the probe is safe to miss — its timestamps are at or
// beyond the reader's horizon, see the protocol argument above.
//
//vsnoop:hotpath
func (mb *mailbox) drain(eng *Engine, w *waiter) int {
	if mb.n.Load() == 0 {
		return 0
	}
	w.lock(&mb.lock)
	items := mb.items
	k := len(items)
	for i := range items {
		eng.push(&items[i])
		items[i] = event{} // release fn/arg references held by the array
	}
	mb.items = items[:0]
	mb.n.Store(0)
	mb.lock.Store(0)
	return k
}

// SyncStats is the synchronization telemetry of one sharded run. These are
// execution mechanics — they depend on the shard count and synchronization
// mode by nature, unlike the simulation statistics, which stay bit-identical
// across both.
type SyncStats struct {
	// Windows counts synchronization rounds that executed at least one
	// event (windowed mode: window advances; adaptive mode: execution
	// stretches).
	Windows uint64
	// BarrierWaits counts shard arrivals at a central barrier. Zero for a
	// whole run means no shard ever waited for an exchange.
	BarrierWaits uint64
	// ElidedBarriers counts exchange barriers skipped: quiet windows in
	// windowed mode, every execution stretch in free-running adaptive mode.
	ElidedBarriers uint64
	// WindowWidthSum accumulates the simulated-cycle width of all windows;
	// WindowWidthSum/Windows is the mean window width.
	WindowWidthSum uint64
	// CrossDeposits counts events deposited across shards over the run.
	CrossDeposits uint64
	// Yields counts the scheduler yields taken by shard waits: a wait
	// whose spin bound ran out, or that stopped spinning because another
	// shard was parked in a yield. Zero for K=1, which never waits.
	Yields uint64
	// Rollbacks is always zero: every engine is conservative. It stays so
	// that consumers reading the counter by name keep working.
	Rollbacks uint64
}

// MeanWindowWidth returns the mean simulated-cycle width of one
// synchronization window (0 when no window completed).
func (s SyncStats) MeanWindowWidth() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.WindowWidthSum) / float64(s.Windows)
}

// runAdaptive is shard s's free-running loop (K >= 2, nothing observing
// window boundaries). Each round: read the other shards' EOTs and drain
// their mailboxes (in that order — see the protocol argument), execute every
// local event strictly below the resulting horizon, flush the round's
// staged deposits, then publish this shard's new EOT.
func (se *ShardedEngine) runAdaptive(s int) {
	eng := se.engs[s]
	st := &se.sh[s]
	w := &st.wait
	la := se.srcLook[s]
	k := se.k
	idle := false
	for {
		if se.stop.Load() != 0 {
			return // Run resets the counters before any rerun
		}

		// Horizon + drain. Loading eot[src] before draining box[src] makes
		// a missed concurrent delivery arrive at or beyond the loaded bound.
		eit := infCycle
		drained := 0
		for src := 0; src < k; src++ {
			if src == s {
				continue
			}
			if r := Cycle(se.sh[src].eot.Load()); r < eit {
				eit = r
			}
			drained += se.boxes[src*k+s].drain(eng, w)
		}
		if idle && drained > 0 {
			// Waking: raise busy before this drain is globally accounted,
			// so a termination collect can never see the work as done but
			// the worker as idle.
			se.busy.Add(1)
			idle = false
		}

		// Execute everything strictly below the horizon, then make the
		// round's deposits visible before the EOT that covers them.
		f0 := eng.Fired()
		err := eng.RunWindow(eit)
		se.flush(s)
		next := infCycle
		if at, ok := eng.NextAt(); ok {
			next = at
		}

		// Publish the new EOT (monotone by construction; finite whenever
		// any peer's is — an empty queue bounds output by eit + L, never
		// by infinity), then account the drained deposits.
		eo := next
		if eit < eo {
			eo = eit
		}
		if eo != infCycle {
			eo += la
		}
		st.eot.Store(uint64(eo))
		if drained > 0 {
			se.drained.Add(uint64(drained))
		}
		if err != nil {
			se.errs[s] = err
			se.stop.Store(1)
			return
		}

		if eng.Fired() > f0 {
			end := eit
			if end == infCycle {
				end = eng.Now()
			}
			if end > st.mark {
				st.windows++
				st.widthSum += uint64(end - st.mark)
				st.mark = end
			}
			st.elided++
			continue
		}

		// Out of local work: go idle (the decrement follows this round's
		// flush in program order) and try the termination double collect;
		// otherwise wait for something that can change the next round.
		if next == infCycle {
			if !idle {
				idle = true
				se.busy.Add(-1)
			}
			d1 := se.drained.Load()
			if se.busy.Load() == 0 && se.deposited.Load() == d1 {
				return
			}
		}
		w.pause(func() bool { return se.wakeable(s, eit) })
	}
}

// wakeable is the adaptive wait's wake condition for shard s after a round
// that ran to horizon eit and executed nothing: the run stopped, an inbound
// mailbox holds events, or the peers' EOTs now allow a horizon above eit.
func (se *ShardedEngine) wakeable(s int, eit Cycle) bool {
	if se.stop.Load() != 0 {
		return true
	}
	k := se.k
	horizon := infCycle
	for src := 0; src < k; src++ {
		if src == s {
			continue
		}
		if se.boxes[src*k+s].n.Load() != 0 {
			return true
		}
		if r := Cycle(se.sh[src].eot.Load()); r < horizon {
			horizon = r
		}
	}
	return horizon > eit
}
