// Package cache implements the set-associative cache model used for the
// private L1 and L2 caches: LRU replacement, per-block token-coherence
// state (token count, owner token, dirty bit), and the two hardware
// extensions virtual snooping adds (paper Section IV.B):
//
//   - a VM identifier in every cache tag, and
//   - per-VM cache residence counters that count how many valid blocks each
//     VM has in the cache. When a VM's counter reaches zero, the core can
//     safely be removed from that VM's vCPU map.
package cache

import (
	"fmt"

	"vsnoop/internal/mem"
)

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
	HitLatency uint64 // cycles
}

// Validate checks the geometry is a power-of-two set count.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets == 0 {
		return fmt.Errorf("cache %q: zero sets", c.Name)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Block is one cache line's state. Token-coherence state (Section V:
// Token Coherence, MOESI) is carried as a token count plus owner and dirty
// flags; the classic MOESI letter is derived on demand. The tag match
// itself scans the cache's packed tag array, and recency lives in a
// parallel array, so a Block is only read once a way has matched. The
// field order packs the flags behind VM, keeping a Block at 24 bytes.
type Block struct {
	Addr   mem.BlockAddr
	Tokens int
	VM     mem.VMID // VM identifier in the tag (virtual snooping extension)
	Valid  bool
	Owner  bool // holds the owner token (data-provider responsibility)
	Dirty  bool
	// Provider marks this copy as its VM's designated data provider for an
	// RO-shared (content-shared) block, so intra-VM and friend-VM requests
	// get exactly one cache response (paper Section VI.B).
	Provider bool
}

// State is the derived MOESI state of a block.
type State uint8

const (
	Invalid State = iota
	Shared
	Owned
	Exclusive
	Modified
)

func (s State) String() string {
	return [...]string{"I", "S", "O", "E", "M"}[s]
}

// StateOf derives the MOESI letter from token state given the total number
// of tokens per block in the system.
func StateOf(b *Block, totalTokens int) State {
	switch {
	case !b.Valid || b.Tokens == 0:
		return Invalid
	case b.Tokens == totalTokens && b.Dirty:
		return Modified
	case b.Tokens == totalTokens:
		return Exclusive
	case b.Owner:
		return Owned
	default:
		return Shared
	}
}

// EvictInfo describes a block displaced from the cache; the coherence
// controller must return its tokens (and dirty data) to memory.
type EvictInfo struct {
	Addr   mem.BlockAddr
	Tokens int
	Owner  bool
	Dirty  bool
	VM     mem.VMID
}

// Cache is one set-associative cache. It is not safe for concurrent use;
// the simulation engine is single-threaded by design.
//
// Storage is three parallel flat arrays indexed by way, set s occupying
// [s*ways, (s+1)*ways): tags holds Addr+1 for a valid block and 0 for an
// invalid one (the valid bit folded into the tag word, so an 8-way set's
// tags fill one host cache line), blocks holds the coherence state, and
// lru the recency stamps. tags[i] != 0 exactly when blocks[i].Valid, and
// then tags[i] == blocks[i].Addr+1.
type Cache struct {
	cfg     Config
	ways    int
	tags    []uint64
	blocks  []Block
	lru     []uint64
	setMask uint64
	tick    uint64
	// hit is the way index of the last Lookup hit: Touch's fast path for
	// the usual Lookup-then-Touch sequence.
	hit int

	// resident is the per-VM residence counter file, a flat array indexed
	// by mem.DenseVM (the hardware analogue: one small counter register per
	// VM, not an associative structure). It grows on first touch of a VM.
	resident []int

	// OnResidenceZero, if set, fires when a VM's residence counter drops
	// to zero (the trigger for vCPU-map removal in the counter policy).
	OnResidenceZero func(vm mem.VMID)
	// OnResidenceBelow, if set, fires when a VM's counter drops strictly
	// below Threshold (the counter-threshold policy trigger).
	OnResidenceBelow func(vm mem.VMID, count int)
	Threshold        int

	// OnDrop, if set, fires whenever a valid block leaves the cache
	// (eviction or invalidation). The system layer uses it to keep the L1
	// a strict subset of the L2 (inclusion).
	OnDrop func(a mem.BlockAddr)

	// OnInsert, if set, fires when a block becomes valid (region-presence
	// tracking for region-based snoop filters).
	OnInsert func(a mem.BlockAddr, vm mem.VMID)

	// OnResidenceUnderflow, if set, turns a residence-counter underflow from
	// a fatal bug into a recoverable fault: the counter is clamped, all
	// counters are recounted from the tags, and the hook fires so the filter
	// can suspect the VM's map. When nil (fault-free runs) underflow remains
	// a panic, because then it can only be a simulator bug.
	OnResidenceUnderflow func(vm mem.VMID)
}

// New builds a cache from cfg; it panics on invalid geometry (a
// configuration error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	n := nSets * cfg.Ways
	return &Cache{
		cfg:     cfg,
		ways:    cfg.Ways,
		tags:    make([]uint64, n),
		blocks:  make([]Block, n),
		lru:     make([]uint64, n),
		setMask: uint64(nSets - 1),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return int(c.setMask) + 1 }

func (c *Cache) setIndex(a mem.BlockAddr) uint64 { return uint64(a) & c.setMask }

// tagOf is the packed tag word of a valid block at a.
func tagOf(a mem.BlockAddr) uint64 { return uint64(a) + 1 }

// way returns the way index holding b, which must be a valid block of
// this cache.
func (c *Cache) way(b *Block) int {
	if i := c.hit; &c.blocks[i] == b {
		return i
	}
	base := int(c.setIndex(b.Addr)) * c.ways
	for i := base; i < base+c.ways; i++ {
		if &c.blocks[i] == b {
			return i
		}
	}
	panic(fmt.Sprintf("cache %s: block %d is not resident", c.cfg.Name, b.Addr))
}

// Lookup returns the block holding addr with nonzero validity, or nil.
// It does not update LRU state; callers decide whether an access counts
// as a use (snoop probes do not).
func (c *Cache) Lookup(a mem.BlockAddr) *Block {
	s := c.setIndex(a)
	base := int(s) * c.ways
	t := tagOf(a)
	for i, tag := range c.tags[base : base+c.ways] {
		if tag == t {
			c.hit = base + i
			return &c.blocks[base+i]
		}
	}
	return nil
}

// Touch marks b most-recently used.
func (c *Cache) Touch(b *Block) {
	i := c.way(b)
	c.tick++
	c.lru[i] = c.tick
}

// Resident returns the residence counter for vm: the number of valid
// blocks tagged with that VM.
func (c *Cache) Resident(vm mem.VMID) int {
	i := mem.DenseVM(vm)
	if i >= len(c.resident) {
		return 0
	}
	return c.resident[i]
}

// ResidentVMs returns every VM with a nonzero residence counter, in
// counter-file order (deterministic).
func (c *Cache) ResidentVMs() []mem.VMID {
	out := make([]mem.VMID, 0, len(c.resident))
	for i, n := range c.resident {
		if n > 0 {
			out = append(out, mem.VMFromDense(i))
		}
	}
	return out
}

// counterIdx returns the counter-file slot for vm, growing the file on a
// VM's first touch (new VMs appear rarely: VM creation, fault injection).
func (c *Cache) counterIdx(vm mem.VMID) int {
	i := mem.DenseVM(vm)
	for i >= len(c.resident) {
		c.resident = append(c.resident, 0)
	}
	return i
}

func (c *Cache) incResident(vm mem.VMID) { c.resident[c.counterIdx(vm)]++ }

func (c *Cache) decResident(vm mem.VMID) {
	i := c.counterIdx(vm)
	c.resident[i]--
	n := c.resident[i]
	if n < 0 {
		if c.OnResidenceUnderflow == nil {
			panic(fmt.Sprintf("cache %s: residence counter for VM %d underflowed", c.cfg.Name, vm))
		}
		c.RecountResidence()
		n = c.resident[i]
		c.OnResidenceUnderflow(vm)
	}
	if n == 0 && c.OnResidenceZero != nil {
		c.OnResidenceZero(vm)
	}
	if c.OnResidenceBelow != nil && n < c.Threshold {
		c.OnResidenceBelow(vm, n)
	}
}

// Insert places addr into the cache tagged with vm, evicting the LRU
// victim of the set if no way is free. The new block starts with zero
// tokens; the coherence controller fills token state as responses arrive.
// evicted reports whether victim describes a displaced valid block.
func (c *Cache) Insert(a mem.BlockAddr, vm mem.VMID) (b *Block, victim EvictInfo, evicted bool) {
	s := c.setIndex(a)
	base := int(s) * c.ways
	t := tagOf(a)
	slot := -1
	for i, tag := range c.tags[base : base+c.ways] {
		if tag == t {
			panic(fmt.Sprintf("cache %s: double insert of block %d", c.cfg.Name, a))
		}
		if tag == 0 && slot < 0 {
			slot = base + i
		}
	}
	if slot < 0 {
		slot = base
		for i := base + 1; i < base+c.ways; i++ {
			if c.lru[i] < c.lru[slot] {
				slot = i
			}
		}
		v := &c.blocks[slot]
		victim = EvictInfo{Addr: v.Addr, Tokens: v.Tokens, Owner: v.Owner, Dirty: v.Dirty, VM: v.VM}
		evicted = true
		// Clear the slot before firing callbacks so reentrant operations
		// (e.g. a residence-triggered FlushVM) never see the victim as
		// still valid.
		c.clearWay(slot)
		c.decResident(victim.VM)
		if c.OnDrop != nil {
			c.OnDrop(victim.Addr)
		}
	}
	c.tick++
	c.blocks[slot] = Block{Addr: a, Valid: true, VM: vm}
	c.tags[slot] = t
	c.lru[slot] = c.tick
	c.incResident(vm)
	if c.OnInsert != nil {
		c.OnInsert(a, vm)
	}
	return &c.blocks[slot], victim, evicted
}

// clearWay invalidates way i in all three arrays.
func (c *Cache) clearWay(i int) {
	c.blocks[i] = Block{}
	c.tags[i] = 0
	c.lru[i] = 0
}

// Invalidate removes b from the cache (e.g. all tokens taken by a GETX)
// and returns its final token state for the controller to forward.
func (c *Cache) Invalidate(b *Block) EvictInfo {
	if !b.Valid {
		panic(fmt.Sprintf("cache %s: invalidate of invalid block", c.cfg.Name))
	}
	return c.invalidateWay(c.way(b))
}

// invalidateWay is Invalidate on a valid way index.
func (c *Cache) invalidateWay(i int) EvictInfo {
	b := &c.blocks[i]
	info := EvictInfo{Addr: b.Addr, Tokens: b.Tokens, Owner: b.Owner, Dirty: b.Dirty, VM: b.VM}
	// Clear before callbacks: a reentrant FlushVM from a residence trigger
	// must not double-invalidate this block.
	c.clearWay(i)
	c.decResident(info.VM)
	if c.OnDrop != nil {
		c.OnDrop(info.Addr)
	}
	return info
}

// FlushPage invalidates every block of host page p and returns their final
// states (used when the hypervisor marks a page RO-shared: dirty lines
// must reach memory so it holds a clean copy).
func (c *Cache) FlushPage(p mem.HostPage) []EvictInfo {
	var out []EvictInfo
	lo := tagOf(mem.BlockInPage(p, 0))
	hi := tagOf(mem.BlockInPage(p, mem.BlocksPerPage-1))
	for i, tag := range c.tags {
		if tag >= lo && tag <= hi {
			out = append(out, c.invalidateWay(i))
		}
	}
	return out
}

// FlushVM invalidates every block tagged with vm (the "selective flush"
// alternative discussed in Section IV.B) and returns their states.
func (c *Cache) FlushVM(vm mem.VMID) []EvictInfo {
	var out []EvictInfo
	for i, tag := range c.tags {
		if tag != 0 && c.blocks[i].VM == vm {
			out = append(out, c.invalidateWay(i))
		}
	}
	return out
}

// CorruptResidence adds delta to vm's residence counter without touching
// any tags — a deliberate soft-error injection (internal/fault). A negative
// delta models the bit-flip that later surfaces as an underflow; a positive
// delta models a stuck count that delays map removal (performance-only, per
// the paper's safety argument).
func (c *Cache) CorruptResidence(vm mem.VMID, delta int) {
	c.resident[c.counterIdx(vm)] += delta
}

// RecountResidence rebuilds every residence counter from the cache tags,
// the recovery action after a detected counter fault.
func (c *Cache) RecountResidence() {
	for i := range c.resident {
		c.resident[i] = 0
	}
	c.ForEachValid(func(b *Block) { c.resident[c.counterIdx(b.VM)]++ })
}

// ForEachValid calls fn for every valid block.
func (c *Cache) ForEachValid(fn func(*Block)) {
	for i, tag := range c.tags {
		if tag != 0 {
			fn(&c.blocks[i])
		}
	}
}

// CountValid returns the number of valid blocks (for tests/invariants).
func (c *Cache) CountValid() int {
	n := 0
	c.ForEachValid(func(*Block) { n++ })
	return n
}
