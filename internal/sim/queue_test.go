package sim

import (
	"sort"
	"testing"
)

// queueModel drives an Engine in lockstep with a reference model: a plain
// slice of pending events kept sorted by (at, key), with keys mirrored
// from the engine's single-domain or per-domain counters. Every fired
// event must be the model's minimum, so any divergence from (at, key)
// order fails at the first wrong pop.
type queueModel struct {
	t       *testing.T
	e       *Engine
	r       *Rand
	fn      HandlerFn
	pending []modelEv
	domains int      // 0: single-domain mode
	seq     uint64   // single-domain key mirror
	domSeq  []uint64 // domain-mode key mirror
	cur     int32    // mirror of the engine's scheduling domain
	ids     uint64   // next event id
	maxIDs  uint64   // spawning stops once this many events were created
	depKey  uint64   // deposit key counter (a domain no event executes in)
	fired   int
}

type modelEv struct {
	at  Cycle
	key uint64
	dom int32
	id  uint64
}

func newQueueModel(t *testing.T, seed uint64, domains int) *queueModel {
	m := &queueModel{t: t, e: NewEngine(), r: NewRand(seed), domains: domains, maxIDs: 4000}
	if domains > 0 {
		// One extra domain lends its prefix to deposit keys: no event ever
		// executes there, so the engine never draws a colliding key.
		m.e.SetDomains(domains + 1)
		m.domSeq = make([]uint64, domains+1)
	}
	m.fn = m.fire
	return m
}

// nextKey mirrors Engine.nextKey.
func (m *queueModel) nextKey() uint64 {
	if m.domains == 0 {
		m.seq++
		return m.seq
	}
	m.domSeq[m.cur]++
	return uint64(m.cur)<<48 | m.domSeq[m.cur]
}

func (m *queueModel) add(ev modelEv) {
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.at > ev.at || p.at == ev.at && p.key > ev.key
	})
	m.pending = append(m.pending, modelEv{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

// delay draws a schedule distance: same-cycle ties, short hops, and
// distances up to three wheel turns (the overflow heap's range).
func (m *queueModel) delay() Cycle {
	switch m.r.Intn(4) {
	case 0:
		return Cycle(m.r.Intn(3))
	case 1:
		return Cycle(m.r.Intn(64))
	default:
		return Cycle(m.r.Intn(3 * wheelSize))
	}
}

// schedule queues one new event through the public API.
func (m *queueModel) schedule() {
	id := m.ids
	m.ids++
	at := m.e.Now() + m.delay()
	dom := m.cur
	if m.domains > 0 && m.r.Intn(2) == 0 {
		dom = int32(m.r.Intn(m.domains))
	}
	key := m.nextKey()
	m.add(modelEv{at: at, key: key, dom: dom, id: id})
	if m.domains > 0 {
		m.e.ScheduleFnAtDom(at, dom, m.fn, nil, id)
	} else {
		m.e.ScheduleFnAt(at, m.fn, nil, id)
	}
}

// depositBatch pushes n already-keyed events the way a mailbox drain
// does, in descending key order within each cycle so that they arrive out
// of key order.
func (m *queueModel) depositBatch(n int) {
	at := m.e.Now() + m.delay()
	evs := make([]event, n)
	for i := range evs {
		m.depKey++
		evs[i] = event{at: at + Cycle(m.r.Intn(2)), key: uint64(m.domains)<<48 | m.depKey,
			dom: int32(m.r.Intn(m.domains)), fn2: m.fn, u: m.ids}
		m.ids++
	}
	for i := len(evs) - 1; i >= 0; i-- {
		ev := evs[i]
		m.add(modelEv{at: ev.at, key: ev.key, dom: ev.dom, id: ev.u})
		m.e.push(&ev)
	}
}

func (m *queueModel) fire(_ interface{}, id uint64) {
	m.t.Helper()
	if len(m.pending) == 0 {
		m.t.Fatalf("fired event %d with the model empty", id)
	}
	want := m.pending[0]
	if want.id != id || m.e.Now() != want.at {
		m.t.Fatalf("fired event %d at cycle %d, want event %d at (%d, %#x)", id, m.e.Now(), want.id, want.at, want.key)
	}
	m.pending = m.pending[1:]
	m.cur = want.dom
	m.fired++
	for k := m.r.Intn(3); k > 0 && m.ids < m.maxIDs; k-- {
		m.schedule()
	}
}

func (m *queueModel) checkPending() {
	m.t.Helper()
	if got := m.e.Pending(); got != len(m.pending) {
		m.t.Fatalf("Pending() = %d, model holds %d", got, len(m.pending))
	}
	at, ok := m.e.NextAt()
	if ok != (len(m.pending) > 0) || ok && at != m.pending[0].at {
		m.t.Fatalf("NextAt() = (%d, %v), model minimum %v", at, ok, m.pending)
	}
}

// TestQueuePopOrderProperty checks that the calendar wheel and its
// overflow heap fire random schedules in exactly (at, key) order, in
// single-domain and domain mode, with drains of out-of-order deposits, and
// through interleaved NextAt, RunUntil, RunWindow and Step calls.
func TestQueuePopOrderProperty(t *testing.T) {
	for _, domains := range []int{0, 3} {
		for seed := uint64(1); seed <= 8; seed++ {
			m := newQueueModel(t, seed, domains)
			for i := 0; i < 300; i++ {
				m.schedule()
			}
			for len(m.pending) > 0 {
				m.checkPending()
				now := m.e.Now()
				switch m.r.Intn(5) {
				case 0:
					limit := now + Cycle(m.r.Intn(2*wheelSize))
					m.e.RunUntil(limit)
					if len(m.pending) > 0 && m.pending[0].at <= limit {
						t.Fatalf("RunUntil(%d) left an event due at %d", limit, m.pending[0].at)
					}
					if m.e.Now() < limit {
						t.Fatalf("RunUntil(%d) left the clock at %d", limit, m.e.Now())
					}
				case 1:
					wend := now + Cycle(m.r.Intn(2*wheelSize))
					if err := m.e.RunWindow(wend); err != nil {
						t.Fatal(err)
					}
					if len(m.pending) > 0 && m.pending[0].at < wend {
						t.Fatalf("RunWindow(%d) left an event due at %d", wend, m.pending[0].at)
					}
				case 2:
					if domains > 0 {
						m.depositBatch(1 + m.r.Intn(6))
					}
				default:
					for k := m.r.Intn(20); k >= 0 && m.e.Step(); k-- {
					}
				}
			}
			m.checkPending()
			if m.fired != int(m.ids) {
				t.Fatalf("domains=%d seed=%d: fired %d of %d events", domains, seed, m.fired, m.ids)
			}
		}
	}
}
