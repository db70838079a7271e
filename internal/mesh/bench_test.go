package mesh

import (
	"testing"

	"vsnoop/internal/sim"
)

func benchNet(contention bool) (*sim.Engine, *Network, []NodeID) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Contention = contention
	net := New(eng, cfg)
	ids := make([]NodeID, 16)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			ids[y*4+x] = net.Attach(x, y, func(interface{}) {})
		}
	}
	return eng, net, ids
}

func BenchmarkSendNoContention(b *testing.B) {
	eng, net, ids := benchNet(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(ids[i&15], ids[(i+7)&15], 8, nil)
		if eng.Pending() > 4096 {
			eng.Run()
		}
	}
	eng.Run()
}

func BenchmarkSendContention(b *testing.B) {
	eng, net, ids := benchNet(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
		if eng.Pending() > 4096 {
			eng.Run()
		}
	}
	eng.Run()
}

// TestSendZeroAllocSteadyState gates the send path's allocation behaviour:
// with the dense link tables and the prebound delivery handler, routing a
// contended message end to end (XY walk, link reservation, delivery event)
// must not allocate once the event queue has reached steady state.
func TestSendZeroAllocSteadyState(t *testing.T) {
	eng, net, ids := benchNet(true)
	for i := 0; i < 1024; i++ {
		net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
	}
	eng.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
		}
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state Send allocates %.2f per 64-message batch, want 0", avg)
	}
}

// TestPartitionedSendZeroAllocSteadyState gates the partitioned-mode send
// path: the per-domain traffic-slot accounting and the cross-domain
// zero-load delivery (ScheduleFnAtDom) must allocate nothing at steady
// state, same as the serial path TestSendZeroAllocSteadyState covers.
func TestPartitionedSendZeroAllocSteadyState(t *testing.T) {
	eng, net, ids := benchNet(true)
	nodeDom := make([]int32, len(ids))
	for i, id := range ids {
		if x, _ := net.Coords(id); x >= 2 {
			nodeDom[i] = 1
		}
	}
	net.Partition(nodeDom, []*sim.Engine{eng, eng})
	for i := 0; i < 1024; i++ {
		net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
	}
	eng.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			// (i+7)&15 crosses the column-2 domain boundary for half the
			// pairs, so both the intra-domain contention walk and the
			// cross-domain fast path are exercised.
			net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
		}
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state partitioned Send allocates %.2f per 64-message batch, want 0", avg)
	}
}

func BenchmarkBroadcast(b *testing.B) {
	eng, net, ids := benchNet(true)
	dests := ids[1:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Multicast(ids[0], dests, 8, nil)
		if eng.Pending() > 4096 {
			eng.Run()
		}
	}
	eng.Run()
}
