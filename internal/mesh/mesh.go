// Package mesh models the on-chip interconnect of the simulated system: a
// 2D mesh (4x4 in the paper's Table II) with dimension-ordered XY routing,
// 16-byte links, a 4-cycle router pipeline, and per-link serialization so
// that snoop-request broadcasts create real contention. The network
// accounts traffic in byte-hops (bytes transferred x links traversed),
// which is the quantity Table IV reports ("the total amount of data
// transferred through the network").
//
// Multicasts are modeled as one unicast per destination, matching the
// broadcast behaviour of the TokenB baseline; virtual snooping's savings
// come from shrinking the destination set.
package mesh

import (
	"fmt"

	"vsnoop/internal/sim"
)

// NodeID identifies a network endpoint (core caches and memory
// controllers alike).
type NodeID int

// Config describes the mesh.
type Config struct {
	Width, Height     int
	LinkBytesPerCycle int       // link width (bytes accepted per cycle)
	RouterDelay       sim.Cycle // per-hop router pipeline depth
	LinkDelay         sim.Cycle // per-hop wire delay
	Contention        bool      // serialize messages on links
}

// DefaultConfig matches Table II: 4x4 2D mesh, 16 B links, 4-cycle router
// pipeline.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, LinkBytesPerCycle: 16, RouterDelay: 4, LinkDelay: 1, Contention: true}
}

// Handler consumes a delivered payload at a node.
type Handler func(payload interface{})

type node struct {
	x, y    int
	handler Handler
}

// Directed link directions. A link is identified by its source router
// coordinates and direction, flattened to a dense id by linkID so the
// per-link tables are plain arrays instead of maps.
const (
	dirEast  = 0
	dirWest  = 1
	dirNorth = 2
	dirSouth = 3
)

// FaultOutcome tells the network what the fault layer decided for one
// injected message. The zero value means "deliver normally".
type FaultOutcome struct {
	// Drop discards the message at injection (no traffic is charged; the
	// fault layer accounts it). Only messages whose loss the protocol
	// tolerates may be dropped — see internal/fault for the classification.
	Drop bool
	// Duplicate injects a second, independently routed copy.
	Duplicate bool
	// Delay adds extra cycles to the arrival time (late delivery).
	Delay sim.Cycle
	// Redirected reroutes the message to RedirectTo instead of its
	// destination (misdelivery; internal/fault uses it to bounce
	// token-carrying messages to the home memory controller so tokens are
	// never destroyed).
	Redirected bool
	RedirectTo NodeID
}

// FaultHook inspects every injected message and decides its fate. It must be
// deterministic given the injection sequence (all randomness from seeded
// sim.Rand streams) so faulted runs stay reproducible.
type FaultHook func(src, dst NodeID, bytes int, payload interface{}) FaultOutcome

// Network is the mesh interconnect. Create with New, attach endpoints,
// then Send. All delivery happens through the shared sim.Engine.
type Network struct {
	cfg   Config
	eng   *sim.Engine
	nodes []node

	// nextFree[linkID] is the cycle at which a directed link next accepts a
	// flit — a dense array indexed by linkID, sized 4 links per router.
	// Only intra-domain routes reserve links, and an intra-domain XY route
	// never leaves the domain's router region, so in partitioned runs each
	// entry is written by exactly one shard.
	nextFree []sim.Cycle

	// deliver is the prebound delivery handler shared by every in-flight
	// message (payload rides in the event's arg, the destination in u), so
	// scheduling a delivery allocates nothing.
	deliver sim.HandlerFn

	// FaultHook, if set, is consulted on every Send (fault injection).
	FaultHook FaultHook

	// degraded[linkID] is a serialization multiplier > 1 when the link is
	// degraded (link-width fault: fewer bytes accepted per cycle), 0
	// otherwise.
	degraded []int32

	// Traffic statistics, flit-quantized: a message occupies whole flits
	// of LinkBytesPerCycle bytes on every link it crosses (an 8-byte
	// control message on a 16-byte link still costs one full flit), which
	// matches how Garnet-style NoC models account traffic. In partitioned
	// mode (Partition) these stay zero and traffic is charged to the
	// sending domain's slot instead; read through TrafficTotals.
	ByteHops uint64 // flit-quantized bytes x links traversed
	Bytes    uint64 // flit-quantized bytes injected
	Messages uint64

	// Domain partition (nil outside sharded runs): nodeDom maps endpoints
	// to snoop domains, engs holds the engine executing each domain, and
	// traf is the per-domain traffic accounting (padded to a cache line so
	// concurrent senders do not share one).
	nodeDom  []int32
	engs     []*sim.Engine
	traf     []trafficSlot
	crossHor []sim.Cycle // per-domain minimum cross-domain latency
}

// trafficSlot is one domain's traffic counters, padded to a cache line.
type trafficSlot struct {
	byteHops, bytes, messages uint64
	crossMsgs                 uint64 // messages leaving the domain
	_                         [4]uint64
}

// New creates a mesh network driven by eng.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.LinkBytesPerCycle <= 0 {
		panic("mesh: invalid config")
	}
	nLinks := cfg.Width * cfg.Height * 4
	n := &Network{
		cfg: cfg, eng: eng,
		nextFree: make([]sim.Cycle, nLinks),
		degraded: make([]int32, nLinks),
	}
	n.deliver = func(payload interface{}, dst uint64) {
		if h := n.nodes[dst].handler; h != nil {
			h(payload)
		}
	}
	return n
}

// linkID flattens a directed link (source router x,y plus direction) to a
// dense table index.
//vsnoop:hotpath
func (n *Network) linkID(x, y, dir int) int {
	return (y*n.cfg.Width+x)<<2 | dir
}

// Partition switches the network to domain-partitioned mode: endpoint i
// belongs to snoop domain nodeDom[i], and domain d's events execute on
// engs[d] (several domains may share one engine). Intra-domain messages
// keep the full link-contention model — XY routes between endpoints of an
// axis-aligned domain never leave it, so each domain's links are touched by
// exactly one shard. Cross-domain messages are delivered at zero-load
// latency (no link reservations, which would race across shards); since a
// cross-domain route has at least one hop, that latency is at least
// RouterDelay+LinkDelay+1 — the lookahead the sharded engine relies on.
// Call after Attach-ing every endpoint and before any Send.
func (n *Network) Partition(nodeDom []int32, engs []*sim.Engine) {
	if len(nodeDom) != len(n.nodes) {
		panic(fmt.Sprintf("mesh: partition of %d nodes, have %d", len(nodeDom), len(n.nodes)))
	}
	n.nodeDom = nodeDom
	n.engs = engs
	n.traf = make([]trafficSlot, len(engs))
	// Precompute each domain's cross-domain horizon: the minimum zero-load
	// latency of any message it can send to another domain (one-flit
	// serialization is the floor — serialization() never returns less than
	// one cycle, and fault delays only add). The sharded engine uses these
	// as per-shard output lookaheads in adaptive mode.
	n.crossHor = make([]sim.Cycle, len(engs))
	for src := range n.nodes {
		sd := nodeDom[src]
		for dst := range n.nodes {
			if nodeDom[dst] == sd {
				continue
			}
			l := n.Latency(NodeID(src), NodeID(dst), 1)
			if h := n.crossHor[sd]; h == 0 || l < h {
				n.crossHor[sd] = l
			}
		}
	}
}

// CrossHorizons returns, per domain, the minimum zero-load latency of any
// cross-domain message the domain can originate — a lower bound on the
// arrival distance of every cross-shard deposit (partitioned mode; nil
// otherwise). A zero entry means the domain has no cross-domain
// destination.
func (n *Network) CrossHorizons() []sim.Cycle { return n.crossHor }

// DomainCrossSends returns the number of messages domain d sent to other
// domains (partitioned mode).
func (n *Network) DomainCrossSends(d int) uint64 { return n.traf[d].crossMsgs }

// TrafficTotals returns the whole-machine traffic counters, summing the
// per-domain slots in partitioned mode.
func (n *Network) TrafficTotals() (byteHops, bytes, messages uint64) {
	byteHops, bytes, messages = n.ByteHops, n.Bytes, n.Messages
	for i := range n.traf {
		t := &n.traf[i]
		byteHops += t.byteHops
		bytes += t.bytes
		messages += t.messages
	}
	return
}

// DomainTraffic returns domain d's traffic counters (partitioned mode).
func (n *Network) DomainTraffic(d int) (byteHops, bytes, messages uint64) {
	t := &n.traf[d]
	return t.byteHops, t.bytes, t.messages
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Attach registers an endpoint at router (x, y) and returns its NodeID.
// Multiple endpoints may share a router (e.g. a corner core and a memory
// controller).
func (n *Network) Attach(x, y int, h Handler) NodeID {
	if x < 0 || x >= n.cfg.Width || y < 0 || y >= n.cfg.Height {
		panic(fmt.Sprintf("mesh: attach at (%d,%d) outside %dx%d", x, y, n.cfg.Width, n.cfg.Height))
	}
	n.nodes = append(n.nodes, node{x: x, y: y, handler: h})
	return NodeID(len(n.nodes) - 1)
}

// SetHandler replaces the delivery handler of an endpoint (useful when the
// endpoint object is constructed after the network).
func (n *Network) SetHandler(id NodeID, h Handler) { n.nodes[id].handler = h }

// Coords returns the router coordinates of an endpoint.
func (n *Network) Coords(id NodeID) (x, y int) {
	nd := n.nodes[id]
	return nd.x, nd.y
}

// Hops returns the XY-routing hop count between two endpoints (the
// Manhattan distance between their routers).
//vsnoop:hotpath
func (n *Network) Hops(src, dst NodeID) int {
	a, b := n.nodes[src], n.nodes[dst]
	return abs(a.x-b.x) + abs(a.y-b.y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// serialization returns the cycles needed to push bytes through one link.
//vsnoop:hotpath
func (n *Network) serialization(bytes int) sim.Cycle {
	s := sim.Cycle((bytes + n.cfg.LinkBytesPerCycle - 1) / n.cfg.LinkBytesPerCycle)
	if s == 0 {
		s = 1
	}
	return s
}

// Latency returns the zero-load latency of a message (no contention):
// router pipeline + wire delay per hop, plus one serialization term
// (wormhole switching: the body streams behind the header).
//vsnoop:hotpath
func (n *Network) Latency(src, dst NodeID, bytes int) sim.Cycle {
	hops := n.Hops(src, dst)
	if hops == 0 {
		// Local delivery still crosses the router once.
		return n.cfg.RouterDelay + n.serialization(bytes)
	}
	return sim.Cycle(hops)*(n.cfg.RouterDelay+n.cfg.LinkDelay) + n.serialization(bytes)
}

// Send injects a message; the destination handler runs when the tail
// arrives. Traffic statistics are charged immediately. When a FaultHook is
// installed it may drop, duplicate, delay, or redirect the message; the
// hook runs once per Send (a duplicated copy is not re-faulted).
//vsnoop:hotpath
func (n *Network) Send(src, dst NodeID, bytes int, payload interface{}) {
	if n.FaultHook != nil {
		out := n.FaultHook(src, dst, bytes, payload)
		if out.Drop {
			return
		}
		if out.Redirected {
			dst = out.RedirectTo
		}
		if out.Duplicate {
			n.transmit(src, dst, bytes, payload, out.Delay)
		}
		n.transmit(src, dst, bytes, payload, out.Delay)
		return
	}
	n.transmit(src, dst, bytes, payload, 0)
}

// transmit performs the actual routing, accounting, and delivery.
//vsnoop:hotpath
func (n *Network) transmit(src, dst NodeID, bytes int, payload interface{}, extra sim.Cycle) {
	hops := n.Hops(src, dst)
	flitBytes := uint64(n.serialization(bytes)) * uint64(n.cfg.LinkBytesPerCycle)
	eng := n.eng
	crossDom := false
	var dd int32
	if n.nodeDom != nil {
		sd := n.nodeDom[src]
		dd = n.nodeDom[dst]
		t := &n.traf[sd]
		t.messages++
		t.bytes += flitBytes
		t.byteHops += flitBytes * uint64(maxInt(hops, 1))
		eng = n.engs[sd]
		crossDom = sd != dd
		if crossDom {
			t.crossMsgs++
		}
	} else {
		n.Messages++
		n.Bytes += flitBytes
		n.ByteHops += flitBytes * uint64(maxInt(hops, 1))
	}

	var arrive sim.Cycle
	if crossDom || !n.cfg.Contention || hops == 0 {
		arrive = eng.Now() + n.Latency(src, dst, bytes)
	} else {
		// Walk the XY route inline (X moves first, then Y), reserving each
		// directed link in the dense nextFree table — no per-message route
		// slice is materialized.
		ser := n.serialization(bytes)
		lastSer := ser
		t := eng.Now() + n.cfg.RouterDelay // source injection pipeline
		a, b := n.nodes[src], n.nodes[dst]
		x, y := a.x, a.y
		for x != b.x || y != b.y {
			var dir int
			switch {
			case b.x > x:
				dir = dirEast
			case b.x < x:
				dir = dirWest
			case b.y > y:
				dir = dirSouth
			default:
				dir = dirNorth
			}
			l := n.linkID(x, y, dir)
			serL := ser
			if f := n.degraded[l]; f > 1 {
				serL = ser * sim.Cycle(f)
			}
			start := t
			if nf := n.nextFree[l]; nf > start {
				start = nf
			}
			n.nextFree[l] = start + serL
			t = start + n.cfg.LinkDelay + n.cfg.RouterDelay
			lastSer = serL
			switch dir {
			case dirEast:
				x++
			case dirWest:
				x--
			case dirSouth:
				y++
			default:
				y--
			}
		}
		arrive = t + lastSer - 1
	}
	arrive += extra
	if n.nodeDom != nil {
		eng.ScheduleFnAtDom(arrive, dd, n.deliver, payload, uint64(dst))
	} else {
		eng.ScheduleFnAt(arrive, n.deliver, payload, uint64(dst))
	}
}

// DegradeLinks marks count randomly chosen directed links as degraded: their
// serialization cost is multiplied by factor (a link-width fault). Links are
// enumerated in a fixed deterministic order and chosen via rng, so identical
// seeds degrade identical links. It returns the number of links degraded.
// Degradation applies to the contention model only (Config.Contention).
func (n *Network) DegradeLinks(count, factor int, rng *sim.Rand) int {
	if count <= 0 || factor <= 1 {
		return 0
	}
	var all []int
	for y := 0; y < n.cfg.Height; y++ {
		for x := 0; x < n.cfg.Width; x++ {
			if x+1 < n.cfg.Width {
				all = append(all, n.linkID(x, y, dirEast))
			}
			if x > 0 {
				all = append(all, n.linkID(x, y, dirWest))
			}
			if y > 0 {
				all = append(all, n.linkID(x, y, dirNorth))
			}
			if y+1 < n.cfg.Height {
				all = append(all, n.linkID(x, y, dirSouth))
			}
		}
	}
	if count > len(all) {
		count = len(all)
	}
	for _, i := range rng.Perm(len(all))[:count] {
		n.degraded[all[i]] = int32(factor)
	}
	return count
}

// Multicast sends the same payload to every destination (one unicast per
// destination, as a broadcast tree is not modeled — this matches charging
// the baseline TokenB its full broadcast cost too).
//vsnoop:hotpath
func (n *Network) Multicast(src NodeID, dsts []NodeID, bytes int, payload interface{}) {
	for _, d := range dsts {
		n.Send(src, d, bytes, payload)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
