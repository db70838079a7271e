package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// runPingPong drives a synthetic 4-domain workload on a ShardedEngine:
// each domain executes a chain of local events and every fifth step
// deposits a cross-domain event into the next domain, honoring the
// lookahead contract (cross arrivals land at now+L or later). Every
// domain's handler appends (cycle, tag) records to that domain's log, so
// the logs are a complete per-domain execution trace: any reordering
// anywhere shows up as a log difference.
func runPingPong(t *testing.T, domShard []int, disable bool, obs *[]Cycle) ([][]uint64, uint64, SyncStats) {
	t.Helper()
	const L = 6
	const steps = 400
	const crossMark = uint64(1) << 40
	se := NewSharded(domShard, L)
	se.DisableElision = disable
	if obs != nil {
		se.OnWindow = func(now Cycle) error {
			*obs = append(*obs, now)
			return nil
		}
	}
	nd := len(domShard)
	type domState struct {
		eng *Engine
		d   int
		log []uint64
	}
	doms := make([]*domState, nd)
	for d := range doms {
		doms[d] = &domState{eng: se.Eng(domShard[d]), d: d}
	}
	var step HandlerFn
	step = func(arg interface{}, u uint64) {
		ad := arg.(*domState)
		now := ad.eng.Now()
		ad.log = append(ad.log, uint64(now)<<20|(u&0xfffff))
		if u&crossMark != 0 || u >= steps {
			return
		}
		ad.eng.ScheduleFnAtDom(now+1+Cycle(u%3), int32(ad.d), step, ad, u+1)
		if u%5 == 2 {
			dst := (ad.d + 1) % nd
			ad.eng.ScheduleFnAtDom(now+L+Cycle(u%4), int32(dst), step, doms[dst], crossMark|u)
		}
	}
	for d := range doms {
		doms[d].eng.SetCurDomain(int32(d))
		doms[d].eng.ScheduleFnAt(Cycle(d), step, doms[d], 0)
	}
	if err := se.Run(); err != nil {
		t.Fatalf("run(domShard=%v): %v", domShard, err)
	}
	logs := make([][]uint64, nd)
	for d := range doms {
		logs[d] = doms[d].log
	}
	return logs, se.Fired(), se.Telemetry()
}

// TestAdaptiveSyntheticBitIdentical pins the engine-level guarantee under
// both synchronization modes: the per-domain execution traces of the
// free-running adaptive protocol and of the fully-barriered windowed
// protocol are identical to the serial single-shard run, for K in {2, 4}.
// It also pins the mode telemetry: adaptive runs never wait on a barrier,
// fully-barriered runs never elide one.
func TestAdaptiveSyntheticBitIdentical(t *testing.T) {
	serialLogs, serialFired, serialTele := runPingPong(t, []int{0, 0, 0, 0}, false, nil)
	if serialFired == 0 || serialTele.BarrierWaits != 0 {
		t.Fatalf("serial run: fired=%d telemetry=%+v", serialFired, serialTele)
	}
	cases := []struct {
		name     string
		domShard []int
		disable  bool
	}{
		{"k2-adaptive", []int{0, 1, 0, 1}, false},
		{"k2-barriered", []int{0, 1, 0, 1}, true},
		{"k4-adaptive", []int{0, 1, 2, 3}, false},
		{"k4-barriered", []int{0, 1, 2, 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logs, fired, tele := runPingPong(t, tc.domShard, tc.disable, nil)
			if fired != serialFired {
				t.Errorf("fired %d, serial %d", fired, serialFired)
			}
			if !reflect.DeepEqual(logs, serialLogs) {
				for d := range logs {
					if !reflect.DeepEqual(logs[d], serialLogs[d]) {
						t.Errorf("domain %d trace diverged (len %d vs %d)",
							d, len(logs[d]), len(serialLogs[d]))
					}
				}
			}
			if tc.disable {
				if tele.ElidedBarriers != 0 {
					t.Errorf("barriered mode elided %d barriers", tele.ElidedBarriers)
				}
				if tele.BarrierWaits == 0 {
					t.Errorf("barriered mode reported no barrier waits: %+v", tele)
				}
			} else {
				if tele.BarrierWaits != 0 {
					t.Errorf("adaptive mode waited on %d barriers", tele.BarrierWaits)
				}
				if tele.Windows == 0 || tele.ElidedBarriers == 0 {
					t.Errorf("adaptive telemetry empty: %+v", tele)
				}
			}
			if tele.CrossDeposits == 0 {
				t.Errorf("workload deposited nothing across shards: %+v", tele)
			}
		})
	}
}

// TestWindowedBoundariesShardInvariant pins the windowed protocol's
// observable contract: the sequence of OnWindow callback cycles — what the
// invariant checker sees — is identical for every shard count, with and
// without quiet-window barrier elision. (An OnWindow observer always forces
// the windowed protocol; elision only changes which barrier runs the fold.)
func TestWindowedBoundariesShardInvariant(t *testing.T) {
	var ref []Cycle
	runPingPong(t, []int{0, 0, 0, 0}, false, &ref)
	if len(ref) == 0 {
		t.Fatal("observer never ran")
	}
	for _, tc := range []struct {
		name     string
		domShard []int
		disable  bool
	}{
		{"k2", []int{0, 1, 0, 1}, false},
		{"k2-barriered", []int{0, 1, 0, 1}, true},
		{"k4", []int{0, 1, 2, 3}, false},
		{"k4-barriered", []int{0, 1, 2, 3}, true},
	} {
		var got []Cycle
		runPingPong(t, tc.domShard, tc.disable, &got)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: window boundary sequence diverged (len %d vs %d)",
				tc.name, len(got), len(ref))
		}
	}
}

// TestWindowedQuietElision pins barrier-B elision in isolation: a sharded
// workload with NO cross-domain traffic under an OnWindow observer must
// elide the exchange on every advancing window (one barrier per window),
// and disabling elision must restore the two-barrier protocol with the
// same observed boundaries.
func TestWindowedQuietElision(t *testing.T) {
	run := func(disable bool) ([]Cycle, SyncStats) {
		se := NewSharded([]int{0, 1, 2, 3}, 6)
		se.DisableElision = disable
		var obs []Cycle
		se.OnWindow = func(now Cycle) error {
			obs = append(obs, now)
			return nil
		}
		var step HandlerFn
		type local struct {
			eng *Engine
			d   int
		}
		step = func(arg interface{}, u uint64) {
			ls := arg.(*local)
			if u == 0 {
				return
			}
			ls.eng.ScheduleFnAtDom(ls.eng.Now()+2, int32(ls.d), step, ls, u-1)
		}
		for d := 0; d < 4; d++ {
			ls := &local{eng: se.Eng(d), d: d}
			ls.eng.SetCurDomain(int32(d))
			ls.eng.ScheduleFnAt(0, step, ls, 50)
		}
		if err := se.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return obs, se.Telemetry()
	}
	obsE, teleE := run(false)
	obsB, teleB := run(true)
	if !reflect.DeepEqual(obsE, obsB) {
		t.Errorf("elision changed the observed boundaries: %d vs %d windows", len(obsE), len(obsB))
	}
	if teleE.CrossDeposits != 0 || teleB.CrossDeposits != 0 {
		t.Fatalf("workload unexpectedly deposited across shards: %+v %+v", teleE, teleB)
	}
	if teleE.ElidedBarriers == 0 || teleE.ElidedBarriers < teleE.Windows {
		t.Errorf("quiet windows not all elided: %+v", teleE)
	}
	if teleB.ElidedBarriers != 0 {
		t.Errorf("disabled elision still elided: %+v", teleB)
	}
	if teleB.BarrierWaits <= teleE.BarrierWaits {
		t.Errorf("elision did not reduce barrier waits: %d vs %d",
			teleE.BarrierWaits, teleB.BarrierWaits)
	}
}

// TestMailboxZeroAllocSteadyState is the allocation gate for the deposit
// path: once the outbox, the mailbox arrays and the destination queue have
// reached their working-set size, staging cross-shard events (Engine.insert
// into the outbox), flushing them (one counted batch per mailbox) and a
// one-pass batch drain must not allocate at all. The drained events are
// fired with Step, which returns their queue nodes to the engine's free
// list.
func TestMailboxZeroAllocSteadyState(t *testing.T) {
	se := NewSharded([]int{0, 1}, 6)
	src, dst := se.Eng(0), se.Eng(1)
	src.SetCurDomain(0)
	box := &se.boxes[0*2+1]
	w := &se.sh[1].wait
	fn := func(_ interface{}, _ uint64) {}
	batch := func(n int) {
		for i := 0; i < n; i++ {
			src.ScheduleFnAtDom(Cycle(i), 1, fn, nil, uint64(i))
		}
		se.flush(0)
		if got := box.drain(dst, w); got != n {
			t.Fatalf("drain returned %d, want %d", got, n)
		}
		for dst.Step() {
		}
	}

	// Pre-grow the outbox and mailbox arrays (they swap on delivery into an
	// empty box, so both reach the batch size) and the queue's slab.
	for i := 0; i < 4; i++ {
		batch(512)
	}

	avg := testing.AllocsPerRun(100, func() { batch(64) })
	if avg != 0 {
		t.Fatalf("steady-state stage+flush+drain allocates %.2f allocs per 64-event batch, want 0", avg)
	}
	if got := se.deposited.Load(); got != 4*512+101*64 {
		t.Fatalf("deposited %d after the batches, want %d", got, 4*512+101*64)
	}
}

// TestMailboxDrainEmptyIsCheap pins the empty-box fast path: draining a
// box that was never written returns zero without taking the lock (the
// atomic length probe short-circuits), so idle shards polling K-1 empty
// mailboxes per round do no spinlock work. A delivered batch is then
// drained whole, and the box reads empty again.
func TestMailboxDrainEmptyIsCheap(t *testing.T) {
	var mb mailbox
	w := &NewSharded([]int{0, 1}, 6).sh[1].wait
	eng := NewEngine()
	mb.lock.Store(1) // a drain that took the lock would spin forever
	for i := 0; i < 3; i++ {
		if got := mb.drain(eng, w); got != 0 {
			t.Fatalf("empty drain returned %d", got)
		}
	}
	mb.lock.Store(0)
	rest := mb.deliver([]event{{at: 1, key: 1}, {at: 2, key: 2}}, w)
	if len(rest) != 0 {
		t.Fatalf("deliver returned a %d-event buffer, want empty", len(rest))
	}
	if got := mb.drain(eng, w); got != 2 {
		t.Fatalf("drain after deliver returned %d, want 2", got)
	}
	if got := mb.drain(eng, w); got != 0 {
		t.Fatalf("second drain returned %d, want 0", got)
	}
	if w.yields != 0 {
		t.Fatalf("uncontended box took %d yields", w.yields)
	}
}

// TestAdaptiveOversubscribed runs the adaptive protocol with eight shards
// on one and on two processors: idle shards must give the processors up
// often enough for the shard holding the work to run. The traces must
// still match the serial run. A hang here (the package's -timeout) means
// the waits stopped yielding.
func TestAdaptiveOversubscribed(t *testing.T) {
	serial := make([]int, 8)
	ref, refFired, _ := runPingPong(t, serial, false, nil)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			logs, fired, tele := runPingPong(t, []int{0, 1, 2, 3, 4, 5, 6, 7}, false, nil)
			if fired != refFired || !reflect.DeepEqual(logs, ref) {
				t.Fatalf("K=8 on %d processors diverged from K=1: fired %d vs %d", procs, fired, refFired)
			}
			if tele.BarrierWaits != 0 || tele.CrossDeposits == 0 {
				t.Errorf("want an adaptive run with cross deposits: %+v", tele)
			}
			if tele.Yields == 0 {
				t.Errorf("eight shards shared %d processors without a single yield: %+v", procs, tele)
			}
		})
	}
}

// TestSerialRunTakesNoYields pins the Yields counter's zero: K=1 never
// waits, in either protocol, so it never yields.
func TestSerialRunTakesNoYields(t *testing.T) {
	var obs []Cycle
	for _, o := range []*[]Cycle{nil, &obs} {
		_, fired, tele := runPingPong(t, []int{0, 0, 0, 0}, false, o)
		if fired == 0 || tele.Yields != 0 {
			t.Fatalf("K=1 run (observer %v): fired %d, telemetry %+v", o != nil, fired, tele)
		}
	}
}

// TestSyncLayout pins the padding of the structs shards poll and write
// concurrently: one shard slot and one mailbox per 64-byte line, and the
// process-wide parked word alone on its line.
func TestSyncLayout(t *testing.T) {
	if n := unsafe.Sizeof(shardSlot{}); n != 64 {
		t.Errorf("shardSlot is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(mailbox{}); n != 64 {
		t.Errorf("mailbox is %d bytes, want 64", n)
	}
	if off, n := unsafe.Offsetof(parked.n), unsafe.Sizeof(parked); off < 64 || n-off < 64 {
		t.Errorf("parked word at offset %d of %d bytes: a 64-byte line around it can reach past the padding", off, n)
	}
}

// TestPauseSpinBound pins the wait primitive's bounds: a condition that
// already holds costs one poll and no yield; one that never holds costs
// spinPolls polls and one yield, or a single poll while any shard in the
// process (of this engine or another) is parked in a yield. The parked
// count returns to its old value once the yields are over.
func TestPauseSpinBound(t *testing.T) {
	var w waiter
	base := parked.n.Load()
	polls := 0
	if !w.pause(func() bool { polls++; return true }) || polls != 1 || w.yields != 0 {
		t.Fatalf("pause on a true condition: %d polls, %d yields; want 1 poll, no yield", polls, w.yields)
	}
	for _, tc := range []struct {
		others int32 // shards parked elsewhere during the pause
		polls  int
	}{{0, spinPolls}, {1, 1}} {
		parked.n.Add(tc.others)
		polls = 0
		y := w.yields
		ok := w.pause(func() bool { polls++; return false })
		parked.n.Add(-tc.others)
		if ok || polls != tc.polls || w.yields != y+1 {
			t.Fatalf("pause on a false condition with %d others parked: %d polls, %d yields; want %d polls, 1 yield",
				tc.others, polls, w.yields-y, tc.polls)
		}
	}
	if got := parked.n.Load(); got != base {
		t.Fatalf("parked count %d after the yields returned, want %d", got, base)
	}
}
