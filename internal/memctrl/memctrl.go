// Package memctrl implements the memory-side Token Coherence controller:
// the token home for every block, the DRAM timing model, the persistent-
// request arbitration table, and the read-only-sharing response rule
// (memory supplies clean data for content-shared pages, or just a token
// when a designated cache provider will supply the data).
package memctrl

import (
	"fmt"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// line is the controller's per-block token account. A line that is not
// present means "memory holds all tokens including the owner token" (the
// reset state).
type line struct {
	tokens  int
	owner   bool
	present bool
}

// chunkBits sizes the token table's lazily allocated chunks: 2048 lines
// (32 KiB, the largest small-object size class) each.
const (
	chunkBits = 11
	chunkSize = 1 << chunkBits
)

// persistentEntry tracks the active persistent requester and the queue of
// waiters for one block.
type persistentEntry struct {
	active  mesh.NodeID
	hasAct  bool
	waiters []token.Msg
}

// Stats are the per-controller counters.
type Stats struct {
	DRAMReads   uint64
	DRAMWrites  uint64
	TokenSends  uint64
	Activations uint64
}

// Ctrl is one memory controller endpoint. Blocks are assigned to
// controllers by address interleaving (done by the cache controllers).
type Ctrl struct {
	Eng  *sim.Engine
	Net  *mesh.Network
	Node mesh.NodeID
	P    token.Params

	// AllCaches lists every cache controller endpoint, for persistent
	// activation broadcasts.
	AllCaches []mesh.NodeID

	// Oracle answers whether a designated RO provider exists among the
	// snooped cores (see token.Oracle); nil disables the optimization and
	// memory always sends data for RO-shared reads.
	Oracle token.Oracle

	Stats Stats

	// Obs, if set, watches token custody changes (invariant checking).
	Obs token.Observer

	// Stride is the number of controllers blocks are interleaved over
	// (block a's home is controller a % Stride); 0 means 1. The token
	// table is indexed by a / Stride, so it stays dense per controller.
	Stride uint64

	// lines is the token table: a dense array of lines indexed by
	// a / Stride, split into chunks allocated on first touch. home is
	// a % Stride of this controller's blocks, learned when the first line
	// is created; it maps table indexes back to block addresses.
	lines      []*[chunkSize]line
	home       uint64
	homeSet    bool
	persistent map[mem.BlockAddr]*persistentEntry

	// sendFn is the prebound event handler for delayed response sends
	// (arg = boxed Msg, u = destination << 32 | bytes): zero-alloc arming.
	sendFn sim.HandlerFn
}

// Init prepares internal state; call once after fields are set.
func (m *Ctrl) Init() {
	if m.Stride == 0 {
		m.Stride = 1
	}
	m.persistent = make(map[mem.BlockAddr]*persistentEntry)
	m.sendFn = func(arg interface{}, u uint64) {
		m.Net.Send(m.Node, mesh.NodeID(u>>32), int(uint32(u)), arg)
	}
}

// slot returns a's entry in the token table, or nil when its chunk was
// never allocated. A block homed at another controller would alias one of
// this controller's lines, so it is rejected as a routing bug.
func (m *Ctrl) slot(a mem.BlockAddr) *line {
	i, r := uint64(a)/m.Stride, uint64(a)%m.Stride
	if r != m.home && m.homeSet {
		m.misrouted(a)
	}
	c := i >> chunkBits
	if c >= uint64(len(m.lines)) || m.lines[c] == nil {
		return nil
	}
	return &m.lines[c][i&(chunkSize-1)]
}

// misrouted is slot's cold failure path.
func (m *Ctrl) misrouted(a mem.BlockAddr) {
	panic(fmt.Sprintf("memctrl: block %d is not homed at this controller (residue %d, want %d)",
		a, uint64(a)%m.Stride, m.home))
}

// line returns a's token account for mutation, materializing it in the
// reset state on first touch.
func (m *Ctrl) line(a mem.BlockAddr) *line {
	l := m.slot(a)
	if l == nil {
		i := uint64(a) / m.Stride
		c := i >> chunkBits
		for uint64(len(m.lines)) <= c {
			m.lines = append(m.lines, nil)
		}
		m.lines[c] = new([chunkSize]line)
		l = &m.lines[c][i&(chunkSize-1)]
	}
	if !l.present {
		if !m.homeSet {
			m.home, m.homeSet = uint64(a)%m.Stride, true
		}
		*l = line{tokens: m.P.TotalTokens, owner: true, present: true}
	}
	return l
}

// Tokens returns memory's current token count and owner flag for a block
// (for tests and invariant checks). It never changes controller state: a
// block that has never left the reset state reports all tokens and the
// owner token.
func (m *Ctrl) Tokens(a mem.BlockAddr) (int, bool) {
	tokens, owner, present := m.Peek(a)
	if !present {
		return m.P.TotalTokens, true
	}
	return tokens, owner
}

// Peek returns the token account for a block without allocating a line:
// present is false when the block has never left the reset state ("memory
// holds all tokens"). Invariant checkers use Peek (or Tokens), neither of
// which perturbs controller state.
func (m *Ctrl) Peek(a mem.BlockAddr) (tokens int, owner, present bool) {
	l := m.slot(a)
	if l == nil || !l.present {
		return 0, false, false
	}
	return l.tokens, l.owner, true
}

// ForEachLine calls fn for every materialized line in ascending block-addr
// order (the table's index order).
func (m *Ctrl) ForEachLine(fn func(a mem.BlockAddr, tokens int, owner bool)) {
	for c, chunk := range m.lines {
		if chunk == nil {
			continue
		}
		for k := range chunk {
			if l := &chunk[k]; l.present {
				fn(m.addrOf(c<<chunkBits|k), l.tokens, l.owner)
			}
		}
	}
}

// addrOf maps a token-table index back to its block address.
func (m *Ctrl) addrOf(i int) mem.BlockAddr {
	return mem.BlockAddr(uint64(i)*m.Stride + m.home)
}

// depart/arrive notify the token-custody observer.
func (m *Ctrl) depart(addr mem.BlockAddr, tokens int, owner bool) {
	if m.Obs != nil && (tokens > 0 || owner) {
		m.Obs.Depart(addr, tokens, owner)
	}
}

func (m *Ctrl) arrive(addr mem.BlockAddr, tokens int, owner bool) {
	if m.Obs != nil && (tokens > 0 || owner) {
		m.Obs.Arrive(addr, tokens, owner)
	}
}

// Handle processes a delivered coherence message (mesh handler).
func (m *Ctrl) Handle(payload interface{}) {
	msg := payload.(token.Msg)
	switch msg.Kind {
	case token.MsgGetS:
		m.handleGetS(msg)
	case token.MsgGetX:
		m.handleGetX(msg)
	case token.MsgWBData, token.MsgWBTokens, token.MsgData, token.MsgTokens:
		m.absorb(msg)
	case token.MsgPersistentReq:
		m.handlePersistentReq(msg)
	case token.MsgPersistentRelease:
		m.handleRelease(msg)
	default:
		panic(fmt.Sprintf("memctrl: unexpected %v", msg.Kind))
	}
}

func (m *Ctrl) handleGetS(msg token.Msg) {
	if p, ok := m.persistent[msg.Addr]; ok && p.hasAct {
		return // tokens are pledged to the persistent requester
	}
	l := m.line(msg.Addr)
	if msg.Page == mem.PageROShared {
		// Content-shared pages are guaranteed clean in memory (the
		// hypervisor flushed them when marking them RO-shared), so memory
		// can always serve them. If a designated cache provider is among
		// the snooped cores, send only the token and let the cache supply
		// the data with a fast cache-to-cache transfer.
		if l.tokens == 0 {
			return // everything is cached; a holder will be snooped
		}
		providerNearby := m.Oracle != nil && m.Oracle.ROProviderAmong(msg.Addr, msg.Dests)
		tok, owner := m.takeOneToken(l)
		m.depart(msg.Addr, tok, owner)
		if providerNearby {
			m.Stats.TokenSends++
			m.send(msg.Src, token.Msg{Kind: token.MsgTokens, Addr: msg.Addr,
				Src: m.Node, Tokens: tok, Owner: owner}, m.P.MCLatency, false)
		} else {
			m.Stats.DRAMReads++
			m.send(msg.Src, token.Msg{Kind: token.MsgData, Addr: msg.Addr,
				Src: m.Node, Tokens: tok, Owner: owner, Data: true}, m.P.DRAMLatency, true)
		}
		return
	}
	// Ordinary TokenB: memory responds only while it holds the owner token
	// (otherwise a cache owner has the current data and responds).
	if !l.owner || l.tokens == 0 {
		return
	}
	tok, owner := m.takeOneToken(l)
	m.depart(msg.Addr, tok, owner)
	m.Stats.DRAMReads++
	m.send(msg.Src, token.Msg{Kind: token.MsgData, Addr: msg.Addr, Src: m.Node,
		Tokens: tok, Owner: owner, Data: true}, m.P.DRAMLatency, true)
}

// takeOneToken removes one token from the line, preferring to keep the
// owner token; ownership transfers only with the last token.
func (m *Ctrl) takeOneToken(l *line) (tokens int, owner bool) {
	if l.tokens >= 2 || !l.owner {
		l.tokens--
		return 1, false
	}
	// Last token and it is the owner token.
	l.tokens = 0
	l.owner = false
	return 1, true
}

func (m *Ctrl) handleGetX(msg token.Msg) {
	if p, ok := m.persistent[msg.Addr]; ok && p.hasAct {
		return
	}
	l := m.line(msg.Addr)
	if l.tokens == 0 && !l.owner {
		return
	}
	tok, owner := l.tokens, l.owner
	l.tokens, l.owner = 0, false
	m.depart(msg.Addr, tok, owner)
	if owner {
		m.Stats.DRAMReads++
		m.send(msg.Src, token.Msg{Kind: token.MsgData, Addr: msg.Addr, Src: m.Node,
			Tokens: tok, Owner: true, Data: true}, m.P.DRAMLatency, true)
	} else if tok > 0 {
		m.Stats.TokenSends++
		m.send(msg.Src, token.Msg{Kind: token.MsgTokens, Addr: msg.Addr, Src: m.Node,
			Tokens: tok}, m.P.MCLatency, false)
	}
}

// absorb folds returned tokens (writebacks or strays) back into the line,
// or forwards them when a persistent entry is active.
func (m *Ctrl) absorb(msg token.Msg) {
	if p, ok := m.persistent[msg.Addr]; ok && p.hasAct && p.active != msg.Src {
		// Relayed tokens stay in flight: no Arrive/Depart on the ledger.
		out := msg
		out.Src = m.Node
		bytes := m.P.CtrlBytes
		if out.Data {
			bytes = m.P.DataBytes
		}
		m.Net.Send(m.Node, p.active, bytes, out)
		return
	}
	m.arrive(msg.Addr, msg.Tokens, msg.Owner)
	l := m.line(msg.Addr)
	l.tokens += msg.Tokens
	l.owner = l.owner || msg.Owner
	if l.tokens > m.P.TotalTokens {
		panic(fmt.Sprintf("memctrl: token overflow at block %d (%d > %d)",
			msg.Addr, l.tokens, m.P.TotalTokens))
	}
	if msg.Dirty {
		m.Stats.DRAMWrites++
	}
}

func (m *Ctrl) handlePersistentReq(msg token.Msg) {
	p, ok := m.persistent[msg.Addr]
	if !ok {
		p = &persistentEntry{}
		m.persistent[msg.Addr] = p
	}
	if p.hasAct {
		if p.active == msg.Src {
			return // duplicate activation from a retry
		}
		p.waiters = append(p.waiters, msg)
		return
	}
	m.activate(p, msg)
}

func (m *Ctrl) activate(p *persistentEntry, msg token.Msg) {
	p.active = msg.Src
	p.hasAct = true
	m.Stats.Activations++
	var act interface{} = token.Msg{Kind: token.MsgPersistentActivate, Addr: msg.Addr, Src: msg.Src}
	for _, n := range m.AllCaches {
		m.Net.Send(m.Node, n, m.P.CtrlBytes, act)
	}
	// Memory forwards its own tokens too.
	l := m.line(msg.Addr)
	if l.tokens > 0 || l.owner {
		tok, owner := l.tokens, l.owner
		l.tokens, l.owner = 0, false
		m.depart(msg.Addr, tok, owner)
		if owner {
			m.Stats.DRAMReads++
			m.send(msg.Src, token.Msg{Kind: token.MsgData, Addr: msg.Addr, Src: m.Node,
				Tokens: tok, Owner: true, Data: true}, m.P.DRAMLatency, true)
		} else if tok > 0 {
			m.send(msg.Src, token.Msg{Kind: token.MsgTokens, Addr: msg.Addr, Src: m.Node,
				Tokens: tok}, m.P.MCLatency, false)
		}
	}
}

func (m *Ctrl) handleRelease(msg token.Msg) {
	p, ok := m.persistent[msg.Addr]
	if !ok || !p.hasAct || p.active != msg.Src {
		return // stale release
	}
	var deact interface{} = token.Msg{Kind: token.MsgPersistentDeactivate, Addr: msg.Addr, Src: m.Node}
	for _, n := range m.AllCaches {
		m.Net.Send(m.Node, n, m.P.CtrlBytes, deact)
	}
	p.hasAct = false
	if len(p.waiters) > 0 {
		next := p.waiters[0]
		p.waiters = p.waiters[1:]
		m.activate(p, next)
	} else {
		delete(m.persistent, msg.Addr)
	}
}

// send transmits a response after the given processing latency.
func (m *Ctrl) send(dst mesh.NodeID, msg token.Msg, latency sim.Cycle, data bool) {
	bytes := m.P.CtrlBytes
	if data {
		bytes = m.P.DataBytes
	}
	var payload interface{} = msg
	m.Eng.ScheduleFn(latency, m.sendFn, payload, uint64(dst)<<32|uint64(uint32(bytes)))
}
