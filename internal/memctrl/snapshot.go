package memctrl

import (
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/token"
)

// Checkpointing for the optimistic (Time Warp) shard engine. Like the
// cache (see internal/cache/snapshot.go), two regimes share one Snap type:
// a flat copy of every present line and persistent entry, and a journaled
// copy-on-first-touch undo log armed by Save and truncated by CommitSnap,
// which prices a checkpoint at O(entries touched per epoch) instead of
// O(table size). The backward unwind to a slot's mark is exact for the
// same first-touch argument.

// lineSave / persistSave are flattened table entries: flat-regime snapshots
// hold one per present entry, journal entries one per first touch
// (had=false marks a key absent at checkpoint time, i.e. created
// speculatively).
type lineSave struct {
	addr mem.BlockAddr
	had  bool
	l    line
}

type persistSave struct {
	addr    mem.BlockAddr
	had     bool
	active  mesh.NodeID
	hasAct  bool
	waiters []token.Msg
}

// mjournal is the copy-on-first-touch undo log over the two tables.
type mjournal struct {
	gen     uint64
	lineGen map[mem.BlockAddr]uint64
	persGen map[mem.BlockAddr]uint64
	lines   []lineSave
	persist []persistSave
}

// Snap is one checkpoint of a memory controller: the token accounts, the
// persistent-request arbitration table, and the counters. Under the flat
// regime the slices hold full flattened tables; under the journaled regime
// they stay empty and the marks index the journal. The simulation never
// observes the persistent map's iteration order, so a rebuild is
// indistinguishable from the original.
type Snap struct {
	lines    []lineSave
	persist  []persistSave
	lineMark int
	persMark int
	stats    Stats
}

// EnableJournal allocates the journal (disarmed) for a controller owned by
// an optimistic shard engine.
func (m *Ctrl) EnableJournal() {
	m.jnStore = &mjournal{
		gen:     1,
		lineGen: make(map[mem.BlockAddr]uint64),
		persGen: make(map[mem.BlockAddr]uint64),
	}
}

// jLine records addr's line pre-image once per generation. Guard with
// m.jn != nil.
func (m *Ctrl) jLine(a mem.BlockAddr) {
	j := m.jn
	if j.lineGen[a] == j.gen {
		return
	}
	j.lineGen[a] = j.gen
	e := lineSave{addr: a}
	if l := m.slot(a); l != nil && l.present {
		e.had = true
		e.l = *l
	}
	j.lines = append(j.lines, e)
}

// jPersist records addr's persistent-entry pre-image once per generation,
// including a deep copy of the waiter queue. Guard with m.jn != nil.
func (m *Ctrl) jPersist(a mem.BlockAddr) {
	j := m.jn
	if j.persGen[a] == j.gen {
		return
	}
	j.persGen[a] = j.gen
	e := persistSave{addr: a}
	if p, ok := m.persistent[a]; ok {
		e.had = true
		e.active, e.hasAct = p.active, p.hasAct
		e.waiters = append(e.waiters[:0], p.waiters...)
	}
	j.persist = append(j.persist, e)
}

// Save checkpoints the controller into s: journal marks when journaling is
// enabled (arming the mutation hooks), flattened tables otherwise.
func (m *Ctrl) Save(s *Snap) {
	if j := m.jnStore; j != nil {
		m.jn = j
		s.lineMark = len(j.lines)
		s.persMark = len(j.persist)
		s.lines = s.lines[:0]
		s.persist = s.persist[:0]
		j.gen++
		s.stats = m.Stats
		return
	}
	s.lines = s.lines[:0]
	m.ForEachLine(func(a mem.BlockAddr, tokens int, owner bool) {
		s.lines = append(s.lines, lineSave{addr: a, had: true, l: line{tokens: tokens, owner: owner, present: true}})
	})
	np := 0
	for a, p := range m.persistent { //lint:ordered flattened entries are rebuilt into a map on Restore; iteration order never reaches simulation state
		var ws []token.Msg
		if np < len(s.persist) {
			ws = s.persist[np].waiters[:0]
		}
		if np < cap(s.persist) {
			s.persist = s.persist[:np+1]
		} else {
			s.persist = append(s.persist, persistSave{})
		}
		s.persist[np] = persistSave{
			addr:    a,
			had:     true,
			active:  p.active,
			hasAct:  p.hasAct,
			waiters: append(ws, p.waiters...),
		}
		np++
	}
	s.persist = s.persist[:np]
	s.stats = m.Stats
}

// Restore rewinds the controller to the state captured by Save: a backward
// journal unwind down to the slot's marks when journaling is enabled (which
// also disarms the hooks — the post-rollback replay runs straight to the
// commit horizon), a full table rebuild otherwise.
func (m *Ctrl) Restore(s *Snap) {
	if j := m.jnStore; j != nil {
		for e := len(j.lines) - 1; e >= s.lineMark; e-- {
			u := &j.lines[e]
			if l := m.slot(u.addr); l != nil {
				*l = u.l // the zero line when absent at checkpoint time
			}
		}
		j.lines = j.lines[:s.lineMark]
		for e := len(j.persist) - 1; e >= s.persMark; e-- {
			u := &j.persist[e]
			if !u.had {
				delete(m.persistent, u.addr)
				continue
			}
			p, ok := m.persistent[u.addr]
			if !ok {
				p = &persistentEntry{}
				m.persistent[u.addr] = p
			}
			p.active, p.hasAct = u.active, u.hasAct
			p.waiters = append(p.waiters[:0], u.waiters...)
		}
		j.persist = j.persist[:s.persMark]
		j.gen++
		m.jn = nil
		m.Stats = s.stats
		return
	}
	for _, chunk := range m.lines {
		if chunk != nil {
			clear(chunk[:])
		}
	}
	for _, ls := range s.lines {
		*m.slotOrGrow(ls.addr) = ls.l
	}
	clear(m.persistent)
	for _, ps := range s.persist {
		m.persistent[ps.addr] = &persistentEntry{
			active:  ps.active,
			hasAct:  ps.hasAct,
			waiters: append([]token.Msg(nil), ps.waiters...),
		}
	}
	m.Stats = s.stats
}

// CommitSnap finalizes the epoch: the journal truncates and disarms. Every
// Save mark taken this epoch is dead after this call.
func (m *Ctrl) CommitSnap() {
	if j := m.jnStore; j != nil {
		j.lines = j.lines[:0]
		j.persist = j.persist[:0]
		j.gen++
		m.jn = nil
	}
}
