// Package tlb models the per-core TLB through which virtual snooping
// learns a page's sharing type: the two unused PTE bits (VM-private /
// RW-shared / RO-shared) are cached in each TLB entry, so "processors can
// know page sharing types for all memory accesses during address
// translation" (Section II.B).
//
// The TLB matters to the mechanism in two ways this model captures:
//
//   - every coherence decision consumes the cached sharing type, so a TLB
//     miss pays a page-walk latency before the request can be routed, and
//   - hypervisor events that change a mapping or its type — copy-on-write
//     on a content-shared page, page merging — require shootdowns that
//     invalidate stale entries.
package tlb

import (
	"fmt"

	"vsnoop/internal/mem"
)

// Config shapes one TLB.
type Config struct {
	Entries int // total entries
	Ways    int
	// Tagged keeps entries across VM switches by tagging them with the
	// VMID (ASID-style); untagged TLBs flush on every vCPU relocation.
	Tagged bool
	// WalkLatency is the page-walk cost of a miss, in cycles.
	WalkLatency uint64
}

// DefaultConfig is a 64-entry 4-way tagged TLB with a 30-cycle walk.
func DefaultConfig() Config {
	return Config{Entries: 64, Ways: 4, Tagged: true, WalkLatency: 30}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: bad geometry %d/%d", c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: set count %d not a power of two", sets)
	}
	return nil
}

type entry struct {
	vm    mem.VMID
	guest mem.GuestPage
	tr    mem.Translation
	valid bool
	lru   uint64
}

// Stats counts TLB events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Flushes    uint64 // whole-TLB or per-VM flushes
	Shootdowns uint64 // single-page invalidations
}

// TLB is one core's translation cache. Not safe for concurrent use.
type TLB struct {
	cfg     Config
	sets    [][]entry
	setMask uint64
	tick    uint64

	Stats Stats
}

// New builds a TLB; it panics on invalid geometry.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.Entries / cfg.Ways
	sets := make([][]entry, nSets)
	backing := make([]entry, cfg.Entries)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &TLB{cfg: cfg, sets: sets, setMask: uint64(nSets - 1)}
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

func (t *TLB) set(gp mem.GuestPage) []entry {
	return t.sets[uint64(gp)&t.setMask]
}

// Lookup returns the cached translation for (vm, guest page).
func (t *TLB) Lookup(vm mem.VMID, gp mem.GuestPage) (mem.Translation, bool) {
	set := t.set(gp)
	for i := range set {
		e := &set[i]
		if e.valid && e.guest == gp && (!t.cfg.Tagged || e.vm == vm) && e.vm == vm {
			t.tick++
			e.lru = t.tick
			t.Stats.Hits++
			return e.tr, true
		}
	}
	t.Stats.Misses++
	return mem.Translation{}, false
}

// Insert caches a translation after a page walk.
func (t *TLB) Insert(vm mem.VMID, gp mem.GuestPage, tr mem.Translation) {
	set := t.set(gp)
	slot := &set[0]
	for i := range set {
		e := &set[i]
		if e.valid && e.guest == gp && e.vm == vm {
			slot = e // refresh in place
			break
		}
		if !e.valid {
			slot = e
			break
		}
		if e.lru < slot.lru {
			slot = e
		}
	}
	t.tick++
	*slot = entry{vm: vm, guest: gp, tr: tr, valid: true, lru: t.tick}
}

// Shootdown invalidates one (vm, guest page) entry, as the hypervisor does
// after copy-on-write or page merging changes the mapping or its type.
func (t *TLB) Shootdown(vm mem.VMID, gp mem.GuestPage) {
	set := t.set(gp)
	for i := range set {
		e := &set[i]
		if e.valid && e.guest == gp && e.vm == vm {
			e.valid = false
			t.Stats.Shootdowns++
			return
		}
	}
}

// FlushVM drops every entry of vm (context switch on an untagged TLB, or
// VM teardown).
func (t *TLB) FlushVM(vm mem.VMID) {
	n := 0
	for s := range t.sets {
		set := t.sets[s]
		for i := range set {
			if set[i].valid && set[i].vm == vm {
				set[i].valid = false
				n++
			}
		}
	}
	if n > 0 {
		t.Stats.Flushes++
	}
}

// FlushAll empties the TLB.
func (t *TLB) FlushAll() {
	for s := range t.sets {
		set := t.sets[s]
		for i := range set {
			set[i].valid = false
		}
	}
	t.Stats.Flushes++
}

// CountValid returns the number of valid entries (tests).
func (t *TLB) CountValid() int {
	n := 0
	for s := range t.sets {
		for i := range t.sets[s] {
			if t.sets[s][i].valid {
				n++
			}
		}
	}
	return n
}
