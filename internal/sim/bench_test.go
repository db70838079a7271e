package sim

import "testing"

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycle(i&1023), func() {})
		if e.Pending() > 8192 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkScheduleFnAndFire(b *testing.B) {
	e := NewEngine()
	fn := func(interface{}, uint64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleFn(Cycle(i&1023), fn, nil, uint64(i))
		if e.Pending() > 8192 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRandZipf(b *testing.B) {
	r := NewRand(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Zipf(4096, 0.7)
	}
	_ = sink
}

// BenchmarkEngineMixedDelays keeps a few thousand events in flight with a
// simulated machine's spread of delays: mostly short mesh and cache hops,
// some DRAM-latency responses, and a few events due beyond the wheel's
// range that go through the overflow heap. One iteration fires one event,
// which schedules its successor.
func BenchmarkEngineMixedDelays(b *testing.B) {
	e := NewEngine()
	r := NewRand(1)
	delays := make([]Cycle, 1<<12)
	for i := range delays {
		switch k := r.Intn(100); {
		case k < 80:
			delays[i] = Cycle(r.Intn(40))
		case k < 98:
			delays[i] = Cycle(150 + r.Intn(400))
		default:
			delays[i] = Cycle(wheelSize + r.Intn(4*wheelSize))
		}
	}
	n := 0
	var fn HandlerFn
	fn = func(_ interface{}, u uint64) {
		n++
		e.ScheduleFn(delays[n&(len(delays)-1)], fn, nil, u)
	}
	for i := 0; i < 2048; i++ {
		e.ScheduleFn(delays[i], fn, nil, uint64(i))
	}
	for i := 0; i < 1<<16; i++ { // warm the slab and heap to steady state
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
