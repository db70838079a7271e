package cache

import (
	"testing"
	"unsafe"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
)

// TestBlockSize pins the packed Block layout: 24 bytes, so the state
// array of a 16-core Table II machine stays at 1.7 MB. Putting a bool
// between Addr and Tokens pads it to 32.
func TestBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got > 24 {
		t.Fatalf("unsafe.Sizeof(Block{}) = %d, want <= 24", got)
	}
}

// checkTags verifies the tag/state split: every packed tag agrees with
// its block (Addr+1 when valid, 0 when invalid), invalid ways carry no
// LRU stamp, and Lookup finds every valid block at its own way.
func checkTags(t *testing.T, c *Cache, when string) {
	t.Helper()
	for i, tag := range c.tags {
		b := &c.blocks[i]
		switch {
		case b.Valid && tag != tagOf(b.Addr):
			t.Fatalf("%s: way %d holds block %d but tag %d", when, i, b.Addr, tag)
		case !b.Valid && (tag != 0 || c.lru[i] != 0 || *b != Block{}):
			t.Fatalf("%s: invalid way %d has tag %d, lru %d, block %+v", when, i, tag, c.lru[i], *b)
		case b.Valid && c.Lookup(b.Addr) != b:
			t.Fatalf("%s: Lookup(%d) misses its block at way %d", when, b.Addr, i)
		}
	}
}

// churn applies n random operations: inserts with evictions, Touch,
// Invalidate, FlushVM, FlushPage and RecountResidence.
func churn(t *testing.T, c *Cache, r *sim.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		a := mem.BlockAddr(r.Intn(512))
		switch op := r.Intn(12); {
		case op < 6:
			if b := c.Lookup(a); b != nil {
				b.Tokens++
				c.Touch(b)
			} else {
				b, _, _ := c.Insert(a, mem.VMID(r.Intn(4)))
				b.Tokens = 1 + r.Intn(3)
			}
			checkTags(t, c, "insert/touch")
		case op < 8:
			if b := c.Lookup(a); b != nil {
				c.Invalidate(b)
			}
			checkTags(t, c, "invalidate")
		case op == 8:
			c.FlushVM(mem.VMID(r.Intn(4)))
			checkTags(t, c, "FlushVM")
		case op == 9:
			c.FlushPage(mem.HostPage(r.Intn(8)))
			checkTags(t, c, "FlushPage")
		default:
			c.CorruptResidence(mem.VMID(r.Intn(4)), 1)
			c.RecountResidence()
			checkTags(t, c, "RecountResidence")
		}
	}
}

// TestTagsAgreeWithBlocks drives every mutation path and checks the tags
// after each step.
func TestTagsAgreeWithBlocks(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		churn(t, small(), sim.NewRand(seed), 700)
	}
}
