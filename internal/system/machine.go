package system

import (
	"fmt"

	"vsnoop/internal/cache"
	"vsnoop/internal/check"
	"vsnoop/internal/core"
	"vsnoop/internal/directory"
	"vsnoop/internal/fault"
	"vsnoop/internal/hv"
	"vsnoop/internal/mem"
	"vsnoop/internal/memctrl"
	"vsnoop/internal/mesh"
	"vsnoop/internal/partition"
	"vsnoop/internal/regionscout"
	"vsnoop/internal/sim"
	"vsnoop/internal/tlb"
	"vsnoop/internal/token"
	"vsnoop/internal/workload"
)

// coreNode is one core's hardware: private L1/L2 and the coherence
// controller, plus the queue of vCPUs waiting for the controller.
//
//vsnoop:owned
type coreNode struct {
	idx  int
	node mesh.NodeID
	// dom is the snoop-domain partition owning this core.
	dom    *domain //vsnoop:owned const
	l1, l2 *cache.Cache
	tlb    *tlb.TLB
	ctrl   *token.CacheCtrl     // token-protocol controller (nil in directory mode)
	dctrl  *directory.CacheCtrl // directory-protocol controller (nil in token mode)
	// waitq holds vCPUs blocked on the busy controller in arrival order
	// (relocation hand-over); drainq is the swap buffer the drain event
	// iterates, so draining allocates nothing in steady state.
	waitq  []*vcpu
	drainq []*vcpu
}

// busy reports whether the core's coherence controller has an outstanding
// transaction, regardless of protocol.
func (cn *coreNode) busy() bool {
	if cn.dctrl != nil {
		return cn.dctrl.Busy()
	}
	return cn.ctrl.Busy()
}

// start launches a coherence transaction on whichever protocol is wired.
func (cn *coreNode) start(addr mem.BlockAddr, vm mem.VMID, pt mem.PageType, write bool, done func()) {
	if cn.dctrl != nil {
		cn.dctrl.Start(addr, vm, write, done)
		return
	}
	cn.ctrl.Start(addr, vm, pt, write, done)
}

// RefSource produces a vCPU's reference stream. workload.Generator is the
// synthetic default; trace.Replayer replays a recorded stream.
type RefSource interface {
	Next() workload.Ref
}

// vcpu is one virtual CPU: its reference source, progress, and identity.
//
//vsnoop:owned
type vcpu struct {
	id hv.VCPU
	// dom is the snoop-domain partition this vCPU executes in; it is only
	// rewritten by the depart handler, inside the old owning domain.
	dom      *domain
	core     int // physical core currently hosting this vCPU
	gen      RefSource
	left     int // references remaining
	executed int // references issued so far (for warmup accounting)
	// pending holds the reference being replayed across a delayed resumption
	// (TLB walk, COW trap) or while parked on a busy controller. A vCPU's
	// stream is strictly sequential, so at most one is ever outstanding.
	pending workload.Ref

	// Cross-shard migration state (syncMode only). inTxn marks an open
	// coherence transaction: a depart arriving mid-transaction is deferred
	// (defFrom/defTo) until the completion callback. parked marks membership
	// in a core's waitq; done marks a finished stream (migrating a retired
	// vCPU must not disturb live accounting).
	inTxn    bool
	deferred bool
	parked   bool
	done     bool
	defFrom  int
	defTo    int

	// txn is the open coherence transaction (valid while inTxn) and
	// txnDone its prebound completion callback, so an L2 miss allocates
	// no closure.
	txn     txn
	txnDone func()

	// vix is this vCPU's index in m.vcpus — the column of the own/fwd
	// ownership tables.
	vix int //vsnoop:owned const
}

// txn is one vCPU's open coherence transaction: the core and domain it
// started in, its start cycle, and the access to fill into the L1 when it
// completes.
type txn struct {
	cn    *coreNode
	d     *domain
	start sim.Cycle
	addr  mem.BlockAddr
	vm    mem.VMID
	write bool
}

// domain is one snoop-domain partition of the machine: the cores the
// graph-cut planner assigned to it, the memory controllers at its corners,
// the engine that executes its events, and the run-time statistics its
// events record. A single-domain configuration has exactly one domain
// covering the whole machine, driven by the single legacy engine — the hot
// paths read state through the domain either way, so serial runs pay no
// branch for sharding support.
//
//vsnoop:owned
type domain struct {
	idx   int32       //vsnoop:owned const
	eng   *sim.Engine //vsnoop:owned const
	st    *Stats
	cores []int // core indexes owned by this domain
	mcs   []int // token memory-controller indexes owned by this domain
	homes []int // directory home indexes owned by this domain

	nvcpus   int
	live     int  // vCPUs still running
	warmLeft int  // vCPUs still inside the warmup phase
	warmed   bool // statistics snapshot taken

	// cow is this domain's private translation overlay for copy-on-write
	// faulted pages (partitioned content-sharing runs only): the global
	// page tables stay immutable at runtime, each domain traps its own
	// writes onto the setup-preallocated target page.
	cow map[uint64]mem.Translation
	// probes is the freelist of holder-classification probes this domain
	// originates.
	probes []*holderProbe
}

// Machine is a fully wired simulated system.
type Machine struct {
	cfg Config

	Eng    *sim.Engine
	Net    *mesh.Network
	MM     *mem.Manager
	Mapper *hv.Mapper
	Filter *core.Filter

	// cores and vcpus are ownership tables keyed by core/vCPU index: the
	// element's owner is its dom field (plan.CoreDom[i] for cores), so any
	// index not derived from the executing handler's own inputs reaches
	// foreign state.
	cores  []*coreNode //vsnoop:owned table
	rs     *regionscout.Filter
	mcs    []*memctrl.Ctrl
	homes  []*directory.Home
	vcpus  []*vcpu             //vsnoop:owned table
	node2i map[mesh.NodeID]int // core endpoint -> core index

	// Injector applies the configured fault plan (nil without one).
	Injector *fault.Injector
	// Checker evaluates protocol invariants online (nil unless Checks or a
	// fault plan is configured).
	Checker *check.Checker
	ledger  *check.Ledger
	// ledgers holds one token-custody ledger per domain in sharded mode, so
	// custody observations stay shard-local (conservation sums them).
	ledgers []*check.Ledger

	dom0 mem.VMID

	Stats Stats

	// plan is the graph-cut snoop-domain partition computed for this config;
	// crossHor holds the per-domain cross-shard horizons the mesh derived
	// from the cut (nil in legacy mode).
	plan     partition.Plan
	crossHor []sim.Cycle

	// doms holds the snoop-domain partitions (one covering everything in
	// legacy mode, the planner's cut in sharded mode); sharded is the
	// parallel engine driving them (nil in legacy mode).
	doms    []*domain //vsnoop:owned table
	sharded *sim.ShardedEngine
	// chkNow is the window-boundary clock published to the invariant
	// checker in sharded runs (written by the barrier leader, read by the
	// checker on the same goroutine).
	chkNow sim.Cycle

	// syncMode marks a partitioned run whose filter state mutates at
	// runtime (vCPU migration, a VM spanning domains, scheduled fault
	// events): the machine builds one filter replica per domain and keeps
	// them coherent with ordered cross-shard deltas. running distinguishes
	// runtime relocations (cross-shard protocol) from setup placement.
	syncMode bool
	running  bool
	// replicas holds the per-domain filter replicas in syncMode (nil
	// otherwise; m.Filter then is the single shared filter). replicas[0]
	// doubles as m.Filter so external accessors keep working.
	replicas []*core.Filter //vsnoop:owned table

	// cowTargets maps CowKey(vm, page) to the setup-preallocated private
	// host page a COW trap resolves to (partitioned content-sharing only),
	// making the target a pure function of the config.
	cowTargets map[uint64]mem.HostPage
	// friendOf/hasFriend are the static post-merge friend tables used by
	// partitioned holder classification (the global mem.Manager is never
	// consulted from domain goroutines at runtime).
	friendOf  []mem.VMID
	hasFriend []bool

	// inflight marks vCPUs with an open cross-shard migration (indexed by
	// vcpuIndex); the shuffler and storms skip them so at most one move per
	// vCPU is ever in the air. retired counts finished vCPUs observed by
	// dom0 so the recurring shuffle tick knows when to stop rescheduling.
	inflight   []bool
	retired    int
	shufRng    *sim.Rand
	shufPeriod sim.Cycle

	// own/fwd are the flat per-domain vCPU location tables of sharded mode
	// (nil in legacy): own[d*nv+vix] reports whether domain d currently owns
	// vCPU vix, and fwd[d*nv+vix] is where d last sent it. Row d is written
	// exclusively by domain d's handlers — depart clears own and points fwd
	// at the destination, arrive sets both — so every shard reads only rows
	// it owns and the event-chase path hops along fwd one domain at a time.
	// Chasing through these rows instead of the vCPU's dom pointer (which
	// the destination shard may be rewriting concurrently) makes the chase
	// both race-free and a pure function of simulated time.
	own []bool  //vsnoop:owned table
	fwd []int32 //vsnoop:owned table
	nv  int

	// stepFn/resumeFn are the prebound event handlers for the two hottest
	// schedulers (per-reference think-time step, delayed reference
	// resumption); the vCPU rides in the event's arg, so neither allocates.
	// The rest are the prebound handlers of the cross-shard protocols.
	stepFn        sim.HandlerFn
	resumeFn      sim.HandlerFn
	drainFn       sim.HandlerFn
	departFn      sim.HandlerFn
	arriveFn      sim.HandlerFn
	ackFn         sim.HandlerFn
	retireFn      sim.HandlerFn
	tickFn        sim.HandlerFn
	deltaFn       sim.HandlerFn
	classifyReqFn sim.HandlerFn
	classifyRepFn sim.HandlerFn
}

// New builds a machine from cfg; it returns an error on invalid
// configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, node2i: make(map[mesh.NodeID]int)}

	// Engine topology. The graph-cut planner fixes the snoop-domain
	// decomposition as a pure function of the config — Shards only picks how
	// many goroutines execute the domains (domain d runs on shard d mod K),
	// so results are bit-identical for every K. A single-domain plan keeps
	// the legacy engine as its one whole-machine domain.
	plan := cfg.PlanPartition()
	m.plan = plan
	if plan.Domains > 1 {
		nd := plan.Domains
		k := cfg.Shards
		if k < 1 {
			k = 1
		}
		if k > nd {
			k = nd
		}
		domShard := make([]int, nd)
		for d := range domShard {
			domShard[d] = d % k
		}
		// Lookahead: any cross-domain message crosses at least one mesh hop
		// (router + link + one flit), and fault delays only add latency.
		lookahead := cfg.Mesh.RouterDelay + cfg.Mesh.LinkDelay + 1
		m.sharded = sim.NewSharded(domShard, lookahead)
		m.Eng = m.sharded.Eng(0)
		for d := 0; d < nd; d++ {
			m.doms = append(m.doms, &domain{
				idx: int32(d), eng: m.sharded.Eng(domShard[d]), st: &Stats{cfg: cfg.sansControl()},
			})
		}
	} else {
		m.Eng = sim.NewEngine()
		m.doms = []*domain{{idx: 0, eng: m.Eng, st: &m.Stats}}
	}
	m.syncMode = m.sharded != nil && cfg.needSync(plan)

	// stepFn/resumeFn carry the scheduled domain index in u: when a migrated
	// vCPU's event fires in a domain that no longer owns it, the handler
	// chases it along the fwd table through the deposit path (which preserves
	// the lookahead discipline). The ownership test reads only row u of the
	// own table — state the executing shard itself writes. Legacy runs have
	// no own table and never chase.
	m.stepFn = func(arg interface{}, u uint64) {
		v := arg.(*vcpu)
		if m.own != nil && !m.own[int(u)*m.nv+v.vix] {
			m.chase(v, u, m.stepFn)
			return
		}
		m.step(v)
	}
	m.resumeFn = func(arg interface{}, u uint64) {
		v := arg.(*vcpu)
		if m.own != nil && !m.own[int(u)*m.nv+v.vix] {
			m.chase(v, u, m.resumeFn)
			return
		}
		m.issueRef(v, v.pending)
	}
	m.drainFn = func(arg interface{}, _ uint64) { m.drainWaiters(arg.(*coreNode)) }
	m.departFn = m.handleDepart
	m.arriveFn = m.handleArrive
	m.ackFn = func(arg interface{}, _ uint64) { m.inflight[m.vcpuIndex(arg.(*vcpu).id)] = false }
	m.retireFn = func(_ interface{}, _ uint64) { m.retired++ }
	m.tickFn = func(_ interface{}, _ uint64) { m.shuffleTick() }
	m.deltaFn = applyDelta
	m.classifyReqFn = m.handleClassifyReq
	m.classifyRepFn = m.handleClassifyRep
	m.Net = mesh.New(m.Eng, cfg.Mesh)
	m.MM = mem.NewManager(cfg.HvPages)
	m.Mapper = hv.NewMapper(cfg.Cores)
	m.dom0 = mem.VMID(0xFFFD)
	m.Stats.init(cfg)

	// Core endpoints, row-major on the mesh.
	coreNodes := make([]mesh.NodeID, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		x, y := i%cfg.Mesh.Width, i/cfg.Mesh.Width
		coreNodes[i] = m.Net.Attach(x, y, nil)
		m.node2i[coreNodes[i]] = i
	}
	// Memory controllers at the corners, block-interleaved.
	cornerXY := [4][2]int{{0, 0}, {cfg.Mesh.Width - 1, 0}, {0, cfg.Mesh.Height - 1}, {cfg.Mesh.Width - 1, cfg.Mesh.Height - 1}}
	mcNodes := make([]mesh.NodeID, cfg.MCs)
	for i := 0; i < cfg.MCs; i++ {
		mcNodes[i] = m.Net.Attach(cornerXY[i][0], cornerXY[i][1], nil)
	}

	// Domain ownership follows the plan's computed cut: cores by CoreDom,
	// memory controllers by MCDom (nearest-corner assignment). In legacy
	// mode the single domain owns everything. Then hand the network the
	// partition so intra-domain traffic keeps full contention while
	// cross-domain messages are delivered at zero-load latency into the
	// destination domain's queue.
	if m.sharded != nil {
		for i := 0; i < cfg.Cores; i++ {
			d := plan.CoreDom[i]
			m.doms[d].cores = append(m.doms[d].cores, i)
		}
		for i := 0; i < cfg.MCs; i++ {
			d := plan.MCDom[i]
			if cfg.Directory {
				m.doms[d].homes = append(m.doms[d].homes, i)
			} else {
				m.doms[d].mcs = append(m.doms[d].mcs, i)
			}
		}
		nodeDom := make([]int32, cfg.Cores+cfg.MCs)
		for i := 0; i < cfg.Cores; i++ {
			nodeDom[coreNodes[i]] = plan.CoreDom[i]
		}
		for i := 0; i < cfg.MCs; i++ {
			nodeDom[mcNodes[i]] = plan.MCDom[i]
		}
		engs := make([]*sim.Engine, len(m.doms))
		for d, dom := range m.doms {
			engs[d] = dom.eng
		}
		m.Net.Partition(nodeDom, engs)
		// Hand the partition's per-domain cross-traffic horizons to the
		// sharded engine: adaptive-mode output lookaheads tighter than (or
		// equal to) the global one. Mode "windowed" pins the windowed
		// protocol instead, and NoElision its fully-barriered form.
		m.crossHor = m.Net.CrossHorizons()
		m.sharded.SetDomainLookahead(m.crossHor)
		m.sharded.Windowed = cfg.Mode == "windowed"
		m.sharded.DisableElision = cfg.NoElision
	} else {
		d := m.doms[0]
		for i := 0; i < cfg.Cores; i++ {
			d.cores = append(d.cores, i)
		}
		for i := 0; i < cfg.MCs; i++ {
			if cfg.Directory {
				d.homes = append(d.homes, i)
			} else {
				d.mcs = append(d.mcs, i)
			}
		}
	}

	// Caches + filter. In syncMode the filter's register file is replicated
	// per domain: each replica owns the residence callbacks of its domain's
	// caches, reads its own domain's clock, and propagates its authoritative
	// map removals to the other replicas as ordered cross-shard deltas.
	// Outside syncMode every VM's state is written from one domain only, so
	// the single shared filter stays safe.
	l2s := make([]*cache.Cache, cfg.Cores)
	for i := range l2s {
		l2s[i] = cache.New(cfg.L2)
	}
	if m.syncMode {
		m.replicas = make([]*core.Filter, len(m.doms))
		for d := range m.doms {
			m.replicas[d] = core.NewFilterScoped(m.doms[d].eng, cfg.Filter, coreNodes, l2s, m.doms[d].cores)
		}
		m.Filter = m.replicas[0]
		for d := range m.replicas {
			dom := m.doms[d]
			m.replicas[d].OnMapRemove = func(vm mem.VMID, coreIdx int) {
				m.broadcastDelta(dom, opMapClear, vm, coreIdx)
			}
		}
	} else {
		m.Filter = core.NewFilter(m.Eng, cfg.Filter, coreNodes, l2s)
	}

	// Cache-side controllers.
	dirParams := directory.DefaultParams()
	dirParams.CtrlBytes, dirParams.DataBytes = cfg.P.CtrlBytes, cfg.P.DataBytes
	dirParams.L2Latency, dirParams.FillLatency = cfg.P.L2Latency, cfg.P.FillLatency
	dirParams.DRAMLatency = cfg.P.DRAMLatency
	for i := 0; i < cfg.Cores; i++ {
		cn := &coreNode{idx: i, node: coreNodes[i], dom: m.domOfCore(i), l2: l2s[i], l1: cache.New(cfg.L1), tlb: tlb.New(cfg.TLB)}
		if cfg.Directory {
			cn.dctrl = &directory.CacheCtrl{
				Eng: cn.dom.eng, Net: m.Net, Node: coreNodes[i], Core: i,
				L2: cn.l2, P: dirParams, Tokens: cfg.P.TotalTokens,
				Homes: mcNodes,
			}
			cn.dctrl.Init()
			m.Net.SetHandler(coreNodes[i], cn.dctrl.Handle)
		} else {
			others := make([]mesh.NodeID, 0, cfg.Cores-1)
			for j, n := range coreNodes {
				if j != i {
					others = append(others, n)
				}
			}
			cn.ctrl = &token.CacheCtrl{
				Eng: cn.dom.eng, Net: m.Net, Node: coreNodes[i], Core: i,
				L2: cn.l2, P: cfg.P, Router: m.filterOf(cn.dom),
				AllCores: others, MCNodes: mcNodes,
				Rng: sim.NewRandTagged(cfg.Seed, fmt.Sprintf("ctrl%d", i)),
			}
			cn.ctrl.Init()
			if m.sharded != nil {
				// Provider designation stays domain-local: the fill scan
				// reads only caches this domain's goroutine owns.
				dom := cn.dom
				cn.ctrl.OnFill = func(b *cache.Block, t *token.Txn) { m.onFillDom(dom, b, t) }
			} else {
				cn.ctrl.OnFill = m.onFill
			}
			m.Net.SetHandler(coreNodes[i], cn.ctrl.Handle)
		}
		// L1 inclusion: L2 drops force L1 drops.
		l1 := cn.l1
		cn.l2.OnDrop = func(a mem.BlockAddr) {
			if b := l1.Lookup(a); b != nil {
				l1.Invalidate(b)
			}
		}
		m.cores = append(m.cores, cn)
	}

	// Optional RegionScout router (related-work comparison). Wired after
	// the L1-inclusion hooks so its presence tracking chains with them.
	if cfg.UseRegionScout {
		m.rs = regionscout.New(regionscout.DefaultConfig(), coreNodes, l2s)
		if m.sharded != nil {
			// Domain-owned NSRTs and presence maps: remote domains are
			// consulted through probe events under the same lookahead
			// discipline as the mesh.
			domCores := make([][]int, len(m.doms))
			domEng := make([]*sim.Engine, len(m.doms))
			for d, dom := range m.doms {
				domCores[d] = dom.cores
				domEng[d] = dom.eng
			}
			m.rs.Partition(plan.CoreDom, domCores, domEng, m.crossHor)
		}
		for _, cn := range m.cores {
			cn.ctrl.Router = m.rs
		}
	}

	// Memory-side controllers: directory homes or token homes, each driven
	// by the engine of the domain the planner assigned its corner to.
	if cfg.Directory {
		for i := 0; i < cfg.MCs; i++ {
			hEng := m.Eng
			if m.sharded != nil {
				hEng = m.doms[plan.MCDom[i]].eng
			}
			h := &directory.Home{Eng: hEng, Net: m.Net, Node: mcNodes[i], P: dirParams}
			h.Init()
			m.Net.SetHandler(mcNodes[i], h.Handle)
			m.homes = append(m.homes, h)
		}
	} else {
		for i := 0; i < cfg.MCs; i++ {
			mcEng := m.Eng
			var oracle token.Oracle = m
			if m.sharded != nil {
				md := m.doms[plan.MCDom[i]]
				mcEng = md.eng
				// The provider oracle scans only the MC's own domain's
				// caches: a missed remote provider is a safe false negative
				// (one extra DRAM read), and the answer is a pure function
				// of the partition, never of the shard interleaving.
				oracle = domOracle{m: m, d: md}
			}
			mc := &memctrl.Ctrl{Eng: mcEng, Net: m.Net, Node: mcNodes[i], P: cfg.P,
				AllCaches: coreNodes, Oracle: oracle, Stride: uint64(cfg.MCs)}
			mc.Init()
			m.Net.SetHandler(mcNodes[i], mc.Handle)
			m.mcs = append(m.mcs, mc)
		}
	}

	// Hypervisor relocation hook keeps the filter's maps (and the vCPU's
	// cached core index) current; on an untagged TLB a vCPU switch also
	// flushes the new core's TLB. At runtime in syncMode the move instead
	// becomes an ordered cross-shard transaction (beginMove): depart in the
	// old domain, arrive in the new one, registration deltas everywhere.
	m.Mapper.OnRelocate = func(id hv.VCPU, from, to int) {
		if m.running && m.syncMode {
			m.beginMove(id, from, to)
			return
		}
		if v := m.vcpuAt(id); v != nil {
			v.core = to
			v.dom = m.domOfCore(to)
		}
		if m.replicas != nil {
			if from >= 0 {
				ownFrom := m.plan.CoreDom[from]
				m.replicas[ownFrom].RelocateDepart(id.VM, from)
				for d, rep := range m.replicas {
					if int32(d) != ownFrom {
						rep.ApplyRunClear(id.VM, from)
					}
				}
			}
			ownTo := m.plan.CoreDom[to]
			m.replicas[ownTo].RelocateArrive(id.VM, to)
			for d, rep := range m.replicas {
				if int32(d) != ownTo {
					rep.ApplyRunSet(id.VM, to)
					rep.ApplyMapSet(id.VM, to)
				}
			}
		} else {
			m.Filter.HandleRelocate(id.VM, from, to)
		}
		if !cfg.TLB.Tagged {
			m.cores[to].tlb.FlushAll()
		}
	}
	// Selective-flush support (PolicyCounterFlush): the filter asks the
	// departed core's controller to write the VM's blocks back. Each replica
	// only ever flushes cores its own domain owns.
	flushVM := func(coreIdx int, vm mem.VMID) {
		if cn := m.cores[coreIdx]; cn.ctrl != nil {
			cn.ctrl.FlushVM(vm)
		}
	}
	if m.replicas != nil {
		for _, rep := range m.replicas {
			rep.OnFlushVM = flushVM
		}
	} else {
		m.Filter.OnFlushVM = flushVM
	}

	// Fault injection: mesh hook, degradation, underflow recovery, and
	// scheduled events. Token-protocol only (Validate enforces it).
	if cfg.Fault.Active() && !cfg.Directory {
		m.Injector = fault.NewInjector(cfg.Fault, cfg.Seed)
		m.Injector.Attach(m.Net, mcNodes)
		if m.sharded != nil {
			// Per-source-node fault streams: each endpoint's faults draw
			// from its own seeded sequence, consumed in that endpoint's
			// deterministic send order — reproducible for any shard count.
			m.Injector.EnablePerNode(cfg.Cores + cfg.MCs)
		}
		if m.replicas != nil {
			for _, rep := range m.replicas {
				rep.DegradationEnabled = true
			}
		} else {
			m.Filter.DegradationEnabled = true
		}
		for _, cn := range m.cores {
			f := m.filterOf(cn.dom)
			cn.ctrl.Esc = f
			cn.l2.OnResidenceUnderflow = f.NoteUnderflow
		}
		if m.syncMode {
			// Scheduled events run in domain 0 (single writer for the
			// injector's event counters) and fan out to the target domains
			// through the deposit path.
			m.scheduleFaultEvents()
		} else {
			m.Injector.ScheduleEvents(m.Eng, fault.EventHooks{
				CorruptMap: m.Filter.CorruptMap,
				CorruptCounter: func(coreIdx int, vm mem.VMID, delta int) {
					if coreIdx >= 0 && coreIdx < len(m.cores) {
						m.cores[coreIdx].l2.CorruptResidence(vm, delta)
					}
				},
				MigrationStorm: m.migrationStorm,
			})
		}
	}

	// Invariant checking: token-custody ledger on every controller plus
	// the periodic checker. Observation-only, so results are identical
	// with or without it; a fault plan always implies it.
	if (cfg.Checks || cfg.Fault.Active()) && !cfg.Directory {
		ctrls := make([]*token.CacheCtrl, len(m.cores))
		ageLimit := cfg.TxnAgeLimit
		if ageLimit == 0 {
			ageLimit = 500_000
		}
		if m.sharded != nil {
			// One token-custody ledger per domain: controllers report to
			// their own domain's ledger (per-ledger balances may go negative
			// on cross-domain transfers; conservation sums across ledgers).
			// The checker runs at window boundaries on the barrier leader —
			// every shard quiesced — against the published window clock.
			m.ledgers = make([]*check.Ledger, len(m.doms))
			for d := range m.ledgers {
				m.ledgers[d] = check.NewLedger()
			}
			for i, cn := range m.cores {
				cn.ctrl.Obs = m.ledgers[cn.dom.idx]
				ctrls[i] = cn.ctrl
			}
			for i, mc := range m.mcs {
				mc.Obs = m.ledgers[plan.MCDom[i]]
			}
			nowFn := func() sim.Cycle { return m.chkNow }
			m.Checker = &check.Checker{Period: cfg.CheckPeriod, Now: nowFn}
			m.Checker.Add(check.TokenConservation(cfg.P.TotalTokens, l2s, m.mcs, m.ledgers...))
			m.Checker.Add(check.SingleWriter(cfg.P.TotalTokens, l2s))
			m.Checker.Add(check.TxnCompletion(nowFn, ctrls, ageLimit))
		} else {
			m.ledger = check.NewLedger()
			for i, cn := range m.cores {
				cn.ctrl.Obs = m.ledger
				ctrls[i] = cn.ctrl
			}
			for _, mc := range m.mcs {
				mc.Obs = m.ledger
			}
			m.Checker = &check.Checker{Eng: m.Eng, Period: cfg.CheckPeriod}
			m.Checker.Add(check.TokenConservation(cfg.P.TotalTokens, l2s, m.mcs, m.ledger))
			m.Checker.Add(check.SingleWriter(cfg.P.TotalTokens, l2s))
			m.Checker.Add(check.TxnCompletion(m.Eng.Now, ctrls, ageLimit))
		}
	}

	m.setupVMs()

	// Sharded post-setup wiring. Page allocation must not depend on the
	// shard interleaving of first touches; COW targets are preallocated so
	// a trap never mutates global page tables; (under faults) each VM's
	// degradation machinery is confined to its owning domain's caches and
	// clock. Every vCPU then joins the domain its core was cut into.
	if m.sharded != nil {
		m.MM.PreallocateAll()
		if cfg.ContentSharing {
			m.cowTargets = m.MM.PrepareCowTargets()
			for _, d := range m.doms {
				d.cow = make(map[uint64]mem.Translation)
			}
			m.initFriendTable()
		}
		if m.Injector != nil {
			if m.replicas != nil {
				for d, rep := range m.replicas {
					for q := 0; q < cfg.VMs; q++ {
						rep.SetVMScope(mem.VMID(q), m.doms[d].cores, m.doms[d].eng)
					}
				}
			} else {
				for q := 0; q < cfg.VMs; q++ {
					// Without sync the VM never leaves its home domain
					// (needSync would be true otherwise), so scope its
					// degradation machinery to that domain alone.
					hd := m.domOfCore(m.Mapper.CoreOf(hv.VCPU{VM: mem.VMID(q), Idx: 0}))
					m.Filter.SetVMScope(mem.VMID(q), hd.cores, hd.eng)
				}
			}
		}
	}
	if m.sharded != nil {
		m.nv = len(m.vcpus)
		m.own = make([]bool, len(m.doms)*m.nv)
		m.fwd = make([]int32, len(m.doms)*m.nv)
	}
	for i, v := range m.vcpus {
		v.vix = i
		v.core = m.Mapper.CoreOf(v.id)
		v.dom = m.domOfCore(v.core)
		v.dom.nvcpus++
	}
	m.initLocationTables()
	return m, nil
}

// initLocationTables (re)derives the per-domain vCPU counts and the own/fwd
// location rows from the mapper's current placement. Called at construction
// and again when a partitioned run starts, so placement changes between the
// two (tests relocating by hand) cannot leave the tables stale.
func (m *Machine) initLocationTables() {
	if m.sharded == nil {
		return
	}
	for _, d := range m.doms {
		d.nvcpus = 0
	}
	for i, v := range m.vcpus {
		v.dom = m.domOfCore(v.core)
		v.dom.nvcpus++
		for d := range m.doms {
			m.own[d*m.nv+i] = int32(d) == v.dom.idx
			m.fwd[d*m.nv+i] = v.dom.idx
		}
	}
}

// domOfCore returns the domain owning core i (per the computed cut).
func (m *Machine) domOfCore(i int) *domain {
	if m.sharded == nil {
		return m.doms[0]
	}
	return m.doms[m.plan.CoreDom[i]]
}

// migrationStorm performs up to pairs cross-VM vCPU swaps back-to-back (a
// relocation burst that churns every vCPU map at once). It returns the
// number of relocations performed.
func (m *Machine) migrationStorm(pairs int) int {
	before := m.Mapper.Relocations
	n := m.Mapper.NumCores()
	for p := 0; p < pairs; p++ {
		for try := 0; try < 16; try++ {
			a, b := m.Injector.Rng.Intn(n), m.Injector.Rng.Intn(n)
			va, vb := m.Mapper.On(a), m.Mapper.On(b)
			if va == hv.NoVCPU || vb == hv.NoVCPU || va.VM == vb.VM {
				continue
			}
			m.Mapper.Swap(a, b)
			break
		}
	}
	return int(m.Mapper.Relocations - before)
}

// ReplaceSources swaps every vCPU's reference source (e.g. with trace
// replayers). sources must have one entry per vCPU, ordered VM-major.
// Call before Run.
func (m *Machine) ReplaceSources(sources []RefSource) error {
	if len(sources) != len(m.vcpus) {
		return fmt.Errorf("system: %d sources for %d vCPUs", len(sources), len(m.vcpus))
	}
	for i, v := range m.vcpus {
		v.gen = sources[i]
	}
	return nil
}

// setupVMs builds address spaces, content sharing, generators, and the
// initial quadrant placement of vCPUs.
func (m *Machine) setupVMs() {
	cfg := m.cfg
	// dom0's working pages live in the shared hypervisor region already;
	// no separate space needed.
	for vm := 0; vm < cfg.VMs; vm++ {
		prof := workload.MustGet(cfg.workloadFor(vm))
		if cfg.NoHypervisor {
			prof.XenFrac, prof.Dom0Frac = 0, 0
		}
		m.MM.NewSpace(mem.VMID(vm), prof.GuestPages(cfg.VCPUsPerVM))
		layout := workload.NewLayout(prof, cfg.VCPUsPerVM)
		if cfg.ContentSharing {
			lo, hi := layout.ContentRange()
			// Content IDs derive from the profile name so homogeneous VMs
			// share all content pages and heterogeneous VMs share none.
			base := mem.ContentID(hashName(prof.Name)) << 20
			for gp := lo; gp < hi; gp++ {
				m.MM.SetContent(mem.VMID(vm), mem.GuestPage(gp), base|mem.ContentID(gp+1))
			}
		}
		for t := 0; t < cfg.VCPUsPerVM; t++ {
			v := &vcpu{
				id:   hv.VCPU{VM: mem.VMID(vm), Idx: t},
				gen:  workload.NewGenerator(prof, cfg.VCPUsPerVM, t, cfg.Seed+uint64(vm)*1000),
				left: cfg.RefsPerVCPU,
			}
			v.txnDone = func() { m.completeTxn(v) }
			m.vcpus = append(m.vcpus, v)
		}
	}
	if cfg.ContentSharing {
		m.MM.OnShareFlush = m.flushPageEverywhere
		m.MM.MergeIdentical()
		for vm := 0; vm < cfg.VMs; vm++ {
			if friend, ok := m.MM.FriendOf(mem.VMID(vm)); ok {
				m.Filter.SetFriend(mem.VMID(vm), friend)
			}
		}
	}
	m.placeVMs()
}

// placeVMs pins each VM's vCPUs onto a compact region of the mesh
// (quadrants for the default 4 VMs x 4 vCPUs on 4x4), the ideal placement
// of Section V.B.
func (m *Machine) placeVMs() {
	cfg := m.cfg
	if !cfg.LinearPlacement && cfg.Cores == 16 && cfg.VMs <= 4 && cfg.VCPUsPerVM == 4 && cfg.Mesh.Width == 4 {
		for _, v := range m.vcpus {
			q := int(v.id.VM)
			x0, y0 := 2*(q%2), 2*(q/2)
			x, y := x0+v.id.Idx%2, y0+v.id.Idx/2
			m.Mapper.Place(v.id, y*4+x)
		}
		return
	}
	c := 0
	for _, v := range m.vcpus {
		m.Mapper.Place(v.id, c)
		c++
	}
}

// flushPageEverywhere writes back every cached block of a page (invoked
// when the hypervisor marks a page RO-shared so memory holds clean data).
func (m *Machine) flushPageEverywhere(p mem.HostPage) {
	for _, cn := range m.cores {
		for range cn.l2.FlushPage(p) {
			// Token state returns to memory implicitly at setup time (the
			// caches are empty before Run); at runtime the writeback path
			// would be used. Setup-only in this model.
		}
	}
}

// hashName gives a stable small hash for content-ID namespacing.
func hashName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h & 0xFFF
}

// ROProviderAmong implements token.Oracle for the memory controllers.
func (m *Machine) ROProviderAmong(addr mem.BlockAddr, cores []mesh.NodeID) bool {
	for _, n := range cores {
		i, ok := m.node2i[n]
		if !ok {
			continue
		}
		if b := m.cores[i].l2.Lookup(addr); b != nil && b.Provider {
			return true
		}
	}
	return false
}

// onFill designates RO provider copies: the first copy of a content-shared
// block brought into a VM becomes that VM's provider (Section VI.B).
func (m *Machine) onFill(b *cache.Block, t *token.Txn) {
	if t.Page != mem.PageROShared || t.Write {
		return
	}
	for _, cn := range m.cores {
		if ob := cn.l2.Lookup(b.Addr); ob != nil && ob != b && ob.Provider && ob.VM == t.VM {
			return // this VM already has a provider
		}
	}
	b.Provider = true
}

// Run executes the configured reference streams to completion and returns
// the collected statistics; it panics on a runtime failure (watchdog trip,
// step-budget exhaustion, drained queue). Use RunChecked to get the error.
func (m *Machine) Run() *Stats {
	st, err := m.RunChecked()
	if err != nil {
		panic(err)
	}
	return st
}

// RunChecked executes the run under the no-forward-progress watchdog and
// (when configured) the step budget and invariant checker. The returned
// Stats are valid even on error — they describe the run up to the failure,
// which is exactly what a livelock diagnosis needs.
func (m *Machine) RunChecked() (*Stats, error) {
	if m.sharded != nil {
		return m.runSharded()
	}
	cfg := m.cfg
	if cfg.MigrationPeriodMs > 0 {
		sh := &hv.Shuffler{
			Eng: m.Eng, Map: m.Mapper,
			Period: sim.Cycle(cfg.MigrationPeriodMs * float64(cfg.CyclesPerMs)),
			Rng:    sim.NewRandTagged(cfg.Seed, "shuffle"),
		}
		sh.Start()
		defer sh.Stop()
	}
	if m.Checker != nil {
		m.Checker.Start()
		defer m.Checker.Stop()
	}
	limit := cfg.ProgressLimit
	if limit == 0 {
		limit = 10_000_000
	}
	m.Eng.SetProgressLimit(limit)
	m.Eng.SetCancel(cfg.Cancel)
	d := m.doms[0]
	d.live = len(m.vcpus)
	if cfg.WarmupRefs > 0 {
		d.warmLeft = len(m.vcpus)
	} else {
		d.warmed = true
	}
	for i, v := range m.vcpus {
		m.Eng.ScheduleFn(sim.Cycle(i), m.stepFn, v, 0)
	}
	err := m.runUntilDone()
	if err == nil && m.Checker != nil {
		m.Checker.CheckNow() // final sweep at quiescence
	}
	m.finalizeStats()
	return &m.Stats, err
}

// runSharded executes a domain-partitioned run on the parallel engine:
// conservative window synchronization over the per-domain event queues,
// with the invariant checker driven at window boundaries (every shard
// quiesced) instead of by self-scheduled engine events. The semantic event
// ordering is fixed by the domain partition, so any shard count — including
// the degenerate K=1 — produces identical results.
func (m *Machine) runSharded() (*Stats, error) {
	cfg := m.cfg
	limit := cfg.ProgressLimit
	if limit == 0 {
		limit = 10_000_000
	}
	m.sharded.SetProgressLimit(limit)
	m.sharded.SetCancel(cfg.Cancel)
	m.sharded.MaxSteps = cfg.MaxSteps
	m.initLocationTables()
	m.running = true
	if m.syncMode {
		m.inflight = make([]bool, len(m.vcpus))
		if cfg.MigrationPeriodMs > 0 {
			// The machine owns the shuffle tick in partitioned runs: it
			// runs in domain 0 (single writer for the mapper and the RNG)
			// and every move it triggers becomes a cross-shard transaction.
			m.shufRng = sim.NewRandTagged(cfg.Seed, "shuffle")
			m.shufPeriod = sim.Cycle(cfg.MigrationPeriodMs * float64(cfg.CyclesPerMs))
			eng := m.doms[0].eng
			eng.SetCurDomain(0)
			eng.ScheduleFn(m.shufPeriod, m.tickFn, nil, 0)
		}
	}
	for _, d := range m.doms {
		d.live = d.nvcpus
		if cfg.WarmupRefs > 0 {
			d.warmLeft = d.nvcpus
		} else {
			d.warmed = true
		}
	}
	for i, v := range m.vcpus {
		v.dom.eng.SetCurDomain(v.dom.idx)
		v.dom.eng.ScheduleFn(sim.Cycle(i), m.stepFn, v, uint64(v.dom.idx))
	}
	if m.Checker != nil {
		period := cfg.CheckPeriod
		if period <= 0 {
			period = 5000
		}
		next := period
		m.sharded.OnWindow = func(now sim.Cycle) error {
			if now >= next {
				m.chkNow = now
				m.Checker.CheckNow()
				next = (now/period + 1) * period
			}
			return nil
		}
	}
	err := m.sharded.Run()
	if err == nil {
		live := 0
		for _, d := range m.doms {
			live += d.live
		}
		if live > 0 {
			err = fmt.Errorf("system: event queue drained with %d unfinished vCPUs", live)
		}
	}
	if err == nil && m.Checker != nil {
		m.chkNow = m.sharded.Now()
		m.Checker.CheckNow() // final sweep at quiescence
	}
	m.finalizeStats()
	return &m.Stats, err
}

// runUntilDone drains events until every vCPU finished. The shuffler and
// checker keep the queue non-empty, so step until the live count reaches
// zero, failing on a watchdog trip or an exhausted step budget.
func (m *Machine) runUntilDone() error {
	var steps uint64
	d := m.doms[0]
	for d.live > 0 {
		ok, err := m.Eng.StepChecked()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("system: event queue drained with %d unfinished vCPUs", d.live)
		}
		steps++
		if m.cfg.MaxSteps > 0 && steps >= m.cfg.MaxSteps && d.live > 0 {
			return &sim.StepLimitError{Limit: m.cfg.MaxSteps, Now: m.Eng.Now(), Pending: m.Eng.Pending()}
		}
	}
	return nil
}

// step issues the next reference of v on its current core.
func (m *Machine) step(v *vcpu) {
	d := v.dom
	d.eng.Progress() // a vCPU advancing its stream is forward progress
	if v.left == 0 {
		d.live--
		if d.st.ExecCycles < uint64(d.eng.Now()) {
			d.st.ExecCycles = uint64(d.eng.Now())
		}
		v.done = true
		if m.shufPeriod > 0 {
			// Tell dom0 (which owns the recurring shuffle tick) that one
			// more stream retired, so the tick can stop rescheduling once
			// every vCPU is done and the run can drain.
			d.eng.ScheduleFnAtDom(d.eng.Now()+m.crossHor[d.idx], 0, m.retireFn, nil, 0)
		}
		return
	}
	v.left--
	v.executed++
	if !d.warmed && v.executed == m.cfg.WarmupRefs {
		d.warmLeft--
		if d.warmLeft == 0 {
			m.takeSnapshot(d)
		}
	}
	m.issueRef(v, v.gen.Next())
}

// issueRef runs one reference on the vCPU's current core, parking it if
// the core's coherence controller is still busy with the previous
// occupant's miss (relocation hand-over). Delayed resumptions (TLB walks,
// copy-on-write traps) re-enter here so occupancy is always re-checked —
// the vCPU may have been relocated, or another vCPU may have claimed the
// controller, while the delay elapsed.
func (m *Machine) issueRef(v *vcpu, ref workload.Ref) {
	cn := m.cores[v.core]
	if cn.busy() {
		v.pending = ref
		v.parked = true
		cn.waitq = append(cn.waitq, v)
		return
	}
	m.execute(v, cn, ref)
}

// drainWaiters re-issues every vCPU parked on cn, in arrival order. The
// first one claims the controller; the rest re-park. One drain event per
// completed transaction with waiters — the same event count the legacy
// closure chain produced.
func (m *Machine) drainWaiters(cn *coreNode) {
	q := cn.waitq
	cn.waitq = cn.drainq[:0]
	cn.drainq = q
	for _, v := range q {
		v.parked = false
		m.issueRef(v, v.pending)
	}
}

// execute performs one memory reference on core cn.
func (m *Machine) execute(v *vcpu, cn *coreNode, ref workload.Ref) {
	cfg := m.cfg
	d := v.dom
	st := d.st

	// Translate: context decides the address space and attribution.
	var (
		host  mem.HostPage
		ptype mem.PageType
		tagVM mem.VMID
	)
	var walk sim.Cycle
	switch ref.Ctx {
	case workload.CtxGuest:
		tr, hit := cn.tlb.Lookup(v.id.VM, ref.Page)
		if !hit {
			tr = m.translate(d, v.id.VM, ref.Page)
			cn.tlb.Insert(v.id.VM, ref.Page, tr)
			walk = sim.Cycle(cfg.TLB.WalkLatency)
		}
		if ref.Write && tr.Type == mem.PageROShared {
			// Store to a content-shared page: hypervisor COW, then a TLB
			// shootdown on every core the VM may run on, then retry the
			// access against the fresh private page. Partitioned runs trap
			// into the domain's private overlay (the target host page was
			// preallocated at setup) and shoot down only their own cores —
			// another domain writing the same page traps again there, onto
			// the same target.
			if m.cowTargets != nil {
				key := mem.CowKey(v.id.VM, ref.Page)
				d.cow[key] = mem.Translation{Host: m.cowTargets[key], Type: mem.PagePrivate}
				st.Cows++
				for _, ci := range d.cores {
					m.cores[ci].tlb.Shootdown(v.id.VM, ref.Page)
				}
			} else {
				// Serial-only: a sharded content-sharing run always has
				// cowTargets (setup preallocates them), so the global
				// page-table mutation never races. The single legacy
				// domain owns every core, so shooting down d.cores is the
				// whole machine here — and stays domain-confined if a
				// future mode ever reaches this branch sharded.
				m.MM.CopyOnWrite(v.id.VM, ref.Page)
				st.Cows++
				for _, ci := range d.cores {
					m.cores[ci].tlb.Shootdown(v.id.VM, ref.Page)
				}
			}
			v.pending = ref
			d.eng.ScheduleFn(cfg.CowLatency, m.resumeFn, v, uint64(d.idx))
			return
		}
		host, ptype, tagVM = tr.Host, tr.Type, v.id.VM
	case workload.CtxXen:
		host, ptype, tagVM = m.MM.HypervisorPage(ref.Hv), mem.PageRWShared, mem.Hypervisor
	case workload.CtxDom0:
		host, ptype, tagVM = m.MM.HypervisorPage(ref.Hv), mem.PageRWShared, m.dom0
	}
	addr := mem.BlockInPage(host, ref.Block)

	if walk > 0 {
		// Pay the page walk, then re-run the access with a warm TLB
		// (re-entering through the occupancy check: the core may have been
		// claimed, or the vCPU relocated, during the walk).
		v.pending = ref
		d.eng.ScheduleFn(walk, m.resumeFn, v, uint64(d.idx))
		return
	}

	st.recordL1Access(v.id.VM, ref.Ctx, ptype)

	// L1: a read filter (write-through, no write-allocate). An L1 hit
	// also refreshes the block's L2 recency so the inclusive L2 does not
	// mistake L1-resident hot data for dead and evict it under streaming
	// fills (hit-promotion hint).
	if !ref.Write {
		if b := cn.l1.Lookup(addr); b != nil {
			cn.l1.Touch(b)
			if lb := cn.l2.Lookup(addr); lb != nil {
				cn.l2.Touch(lb)
			}
			m.finish(v, sim.Cycle(cfg.L1.HitLatency))
			return
		}
	}

	// L2.
	st.L2Accesses++
	b := cn.l2.Lookup(addr)
	if b != nil && b.Tokens >= 1 && (!ref.Write || b.Tokens == cfg.P.TotalTokens) {
		// Hit (reads need a token; writes need all — silent E->M upgrade).
		if ref.Write {
			b.Dirty = true
		}
		cn.l2.Touch(b)
		m.l1Fill(cn, addr, tagVM, ref.Write)
		m.finish(v, sim.Cycle(cfg.L2.HitLatency))
		return
	}

	// L2 miss or upgrade: coherence transaction.
	st.recordL2Miss(v.id.VM, ref.Ctx, ptype)
	if ptype == mem.PageROShared {
		if m.sharded != nil {
			m.classifyPartitioned(d, addr, v.id.VM)
		} else {
			m.classifyHolder(d, st, addr, v.id.VM)
		}
	}
	v.inTxn = true
	v.txn = txn{cn: cn, d: d, start: d.eng.Now(), addr: addr, vm: tagVM, write: ref.Write}
	cn.start(addr, tagVM, ptype, ref.Write, v.txnDone)
}

// completeTxn is the completion callback of v's open coherence
// transaction (prebound per vCPU as v.txnDone).
func (m *Machine) completeTxn(v *vcpu) {
	t := v.txn
	v.inTxn = false
	t.d.st.MissLatency.Observe(float64(t.d.eng.Now() - t.start))
	m.l1Fill(t.cn, t.addr, t.vm, t.write)
	// Free waiting relocated vCPUs, then continue this stream.
	if len(t.cn.waitq) > 0 {
		t.d.eng.ScheduleFn(0, m.drainFn, t.cn, 0)
	}
	m.finish(v, 0)
	if v.deferred {
		// A cross-shard depart arrived mid-transaction: perform it now
		// that the transaction closed. The step just scheduled above
		// fires in this (old) domain and chases the vCPU to its new one.
		v.deferred = false
		m.departNow(v, v.defFrom, v.defTo)
	}
}

// l1Fill caches read data in the L1 (writes are no-allocate).
func (m *Machine) l1Fill(cn *coreNode, addr mem.BlockAddr, vm mem.VMID, write bool) {
	if write {
		return
	}
	if cn.l1.Lookup(addr) == nil {
		cn.l1.Insert(addr, vm)
	}
}

// finish schedules the vCPU's next reference after latency + think time.
func (m *Machine) finish(v *vcpu, latency sim.Cycle) {
	v.dom.eng.ScheduleFn(latency+m.cfg.ThinkCycles, m.stepFn, v, uint64(v.dom.idx))
}

// L2 exposes core i's L2 cache (tests and invariant checks).
func (m *Machine) L2(i int) *cache.Cache { return m.cores[i].l2 }

// CheckFilterInvariant verifies virtual snooping's conservativeness: every
// cached block of a VM-private page resides on a core that is in the VM's
// vCPU map. It applies to the base and counter policies (counter-threshold
// is deliberately speculative and relies on protocol retries instead).
func (m *Machine) CheckFilterInvariant() error {
	pol := m.cfg.Filter.Policy
	if pol != core.PolicyBase && pol != core.PolicyCounter && pol != core.PolicyCounterFlush {
		return nil
	}
	for i, cn := range m.cores {
		var err error
		cn.l2.ForEachValid(func(b *cache.Block) {
			if err != nil || b.Tokens == 0 {
				return
			}
			if int(b.VM) >= m.cfg.VMs {
				return // hypervisor / dom0 blocks are broadcast anyway
			}
			if m.MM.TypeOf(b.Addr.PageOf()) != mem.PagePrivate {
				return
			}
			if !m.filterContains(b.VM, i) {
				err = fmt.Errorf("core %d holds private block %d of VM %d but is not in its vCPU map (map=%v)",
					i, b.Addr, b.VM, m.filterOf(cn.dom).MapCores(b.VM))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
