package cache

// Checkpointing for the optimistic (Time Warp) shard engine. Two regimes:
//
//   - Flat: Save bulk-copies every block and LRU stamp. Simple, but O(cache size) per
//     checkpoint — ruinous when epochs are a few dozen cycles wide and an
//     epoch touches a handful of sets.
//
//   - Journaled: the engine arms a copy-on-first-touch journal at the
//     epoch-base checkpoint. Each mutating access records its set's
//     pre-image once per checkpoint generation; Save is then just a mark in
//     the journal (plus the small flat state: tick and the residence
//     counter file), Restore unwinds pre-images newest-first down to the
//     slot's mark, and Commit truncates everything. Cost is O(sets touched
//     per epoch), not O(cache size).
//
// Restoring to slot j by a backward walk is exact: the oldest journal
// entry for a set at or above slot j's mark holds that set's value at the
// first touch after some checkpoint g >= j, and the set was untouched
// between checkpoint j and that touch (otherwise an earlier entry would
// exist), so the last pre-image the walk applies is the set's state at
// checkpoint j.

// journal is the copy-on-first-touch undo log. Backing arrays are reused
// across epochs, so steady-state checkpointing allocates only when the
// per-epoch footprint grows past its high-water mark.
type journal struct {
	gen    uint64   // current checkpoint generation (bumped per Save/Restore/Commit)
	setGen []uint64 // per set: generation whose journal already holds its pre-image
	idx    []int32  // touched set index, in touch order
	blocks []Block  // pre-image arena: entry e occupies [e*ways, (e+1)*ways)
	lru    []uint64 // LRU pre-images, laid out like blocks
}

// Snap is one checkpoint of a cache. Under the flat regime blocks and lru
// hold full copies; under the journaled regime mark is the journal length
// at save time and both stay empty. tick and the residence counter file
// are always copied flat (they are a few words). The packed tags are never
// saved: Restore rebuilds them from the restored blocks.
type Snap struct {
	blocks   []Block
	lru      []uint64
	mark     int
	resident []int
	tick     uint64
}

// EnableJournal allocates the journal (disarmed). Call once, before the
// run, on caches owned by an optimistic shard engine. Until the first Save
// the journal stays disarmed and the mutation hooks cost one nil check.
func (c *Cache) EnableJournal() {
	c.jnStore = &journal{gen: 1, setGen: make([]uint64, c.NumSets())}
}

// jsave records set s's pre-image once per generation. Callers guard with
// c.jn != nil (armed).
func (c *Cache) jsave(s uint64) {
	j := c.jn
	if j.setGen[s] == j.gen {
		return
	}
	j.setGen[s] = j.gen
	j.idx = append(j.idx, int32(s))
	base := int(s) * c.ways
	j.blocks = append(j.blocks, c.blocks[base:base+c.ways]...)
	j.lru = append(j.lru, c.lru[base:base+c.ways]...)
}

// jsaveAll records every set (bulk escape hatch for whole-cache walks that
// hand out mutable blocks).
func (c *Cache) jsaveAll() {
	for s := 0; s < c.NumSets(); s++ {
		c.jsave(uint64(s))
	}
}

// Save checkpoints the cache into s: a journal mark when journaling is
// enabled (arming the mutation hooks), a full block copy otherwise.
func (c *Cache) Save(s *Snap) {
	if j := c.jnStore; j != nil {
		c.jn = j
		s.mark = len(j.idx)
		s.blocks = s.blocks[:0]
		s.lru = s.lru[:0]
		j.gen++
	} else {
		s.blocks = append(s.blocks[:0], c.blocks...)
		s.lru = append(s.lru[:0], c.lru...)
	}
	s.resident = append(s.resident[:0], c.resident...)
	s.tick = c.tick
}

// Restore rewinds the cache to the state captured by Save. The residence
// counter file is truncated back to its saved length: entries a VM's first
// touch appended during rolled-back speculation are regrown (as zeros) if
// the replay touches that VM again, reproducing the original growth order.
// Journaled restore disarms the hooks: the engine's post-rollback replay
// runs straight to the commit horizon, after which everything is final.
func (c *Cache) Restore(s *Snap) {
	if j := c.jnStore; j != nil {
		ways := c.ways
		for e := len(j.idx) - 1; e >= s.mark; e-- {
			base := int(j.idx[e]) * ways
			copy(c.blocks[base:base+ways], j.blocks[e*ways:(e+1)*ways])
			copy(c.lru[base:base+ways], j.lru[e*ways:(e+1)*ways])
			c.retag(base, base+ways)
		}
		j.idx = j.idx[:s.mark]
		j.blocks = j.blocks[:s.mark*ways]
		j.lru = j.lru[:s.mark*ways]
		j.gen++
		c.jn = nil
	} else {
		copy(c.blocks, s.blocks)
		copy(c.lru, s.lru)
		c.retag(0, len(c.blocks))
	}
	c.resident = append(c.resident[:0], s.resident...)
	c.tick = s.tick
}

// CommitSnap finalizes the epoch: the journal truncates and disarms. Every
// Save mark taken this epoch is dead after this call.
func (c *Cache) CommitSnap() {
	if j := c.jnStore; j != nil {
		j.idx = j.idx[:0]
		j.blocks = j.blocks[:0]
		j.lru = j.lru[:0]
		j.gen++
		c.jn = nil
	}
}

// retag rebuilds the packed tags of ways [lo, hi) from their blocks.
func (c *Cache) retag(lo, hi int) {
	for i := lo; i < hi; i++ {
		if b := &c.blocks[i]; b.Valid {
			c.tags[i] = tagOf(b.Addr)
		} else {
			c.tags[i] = 0
		}
	}
}
