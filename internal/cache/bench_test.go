package cache

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
)

func benchCache() *Cache {
	return New(Config{Name: "L2", SizeBytes: 256 * 1024, Ways: 8, BlockBytes: 64, HitLatency: 10})
}

func BenchmarkLookupHit(b *testing.B) {
	c := benchCache()
	for i := 0; i < 1024; i++ {
		c.Insert(mem.BlockAddr(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(mem.BlockAddr(i&1023)) == nil {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	c := benchCache()
	for i := 0; i < 1024; i++ {
		c.Insert(mem.BlockAddr(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(mem.BlockAddr(1_000_000+i)) != nil {
			b.Fatal("unexpected hit")
		}
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := benchCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mem.BlockAddr(i)
		if c.Lookup(a) == nil {
			c.Insert(a, mem.VMID(i&3))
		}
	}
}

func BenchmarkFlushVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := benchCache()
		for j := 0; j < 4096; j++ {
			c.Insert(mem.BlockAddr(j), mem.VMID(j&3))
		}
		b.StartTimer()
		c.FlushVM(1)
	}
}

// BenchmarkLookupMachineFootprint looks up blocks across the private
// caches of a Table II machine: 16 cores, each with a 32 KB 4-way L1 and a
// 256 KB 8-way L2, about 3 MB of cache arrays in all, so the lookups
// stream through more than a host core's private caches the way a
// simulated run does. Each iteration probes one core's L1 and then its L2
// with a mix of hits and misses.
func BenchmarkLookupMachineFootprint(b *testing.B) {
	const cores = 16
	l1s, l2s := make([]*Cache, cores), make([]*Cache, cores)
	for i := range l1s {
		l1s[i] = New(Config{Name: "L1", SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 64, HitLatency: 2})
		l2s[i] = New(Config{Name: "L2", SizeBytes: 256 * 1024, Ways: 8, BlockBytes: 64, HitLatency: 10})
		for a := 0; a < 4096; a++ {
			l2s[i].Insert(mem.BlockAddr(a), 1)
			if a < 512 {
				l1s[i].Insert(mem.BlockAddr(a), 1)
			}
		}
	}
	r := sim.NewRand(1)
	addrs := make([]mem.BlockAddr, 1<<16)
	for i := range addrs {
		addrs[i] = mem.BlockAddr(r.Intn(6144)) // two thirds L2-resident
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i & (cores - 1)
		a := addrs[i&(len(addrs)-1)]
		if l1s[c].Lookup(a) != nil {
			hits++
		}
		if l2s[c].Lookup(a) != nil {
			hits++
		}
	}
	benchSink = hits
}

var benchSink int
