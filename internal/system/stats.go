package system

import (
	"sync/atomic"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
	"vsnoop/internal/stats"
	"vsnoop/internal/workload"
)

// totalEvents accumulates EventsFired across every run in the process; the
// CLI throughput footers read it via TotalEventsFired.
var totalEvents atomic.Uint64 //lint:shardsafe process-wide CLI telemetry, written once per run at finalize, never read by sim code

// TotalEventsFired returns the simulator events executed by all runs in
// this process so far. Monotone; each run adds its count as it finalizes.
func TotalEventsFired() uint64 { return totalEvents.Load() }

// Process-wide synchronization telemetry, accumulated by finalizeSharded
// alongside totalEvents; the CLI footers read it via TotalSyncStats.
var (
	totalSyncWindows atomic.Uint64 //lint:shardsafe process-wide CLI telemetry, written once per run at finalize, never read by sim code
	totalSyncElided  atomic.Uint64 //lint:shardsafe process-wide CLI telemetry, written once per run at finalize, never read by sim code
	totalSyncWaits   atomic.Uint64 //lint:shardsafe process-wide CLI telemetry, written once per run at finalize, never read by sim code
	totalSyncWidth   atomic.Uint64 //lint:shardsafe process-wide CLI telemetry, written once per run at finalize, never read by sim code
	totalSyncYields  atomic.Uint64 //lint:shardsafe process-wide CLI telemetry, written once per run at finalize, never read by sim code
)

// TotalSyncStats returns the synchronization telemetry summed over every
// sharded run in this process so far (windows, elided barriers, barrier
// waits, window-width sum in cycles, scheduler yields taken by shard
// waits).
func TotalSyncStats() (windows, elided, waits, widthSum, yields uint64) {
	return totalSyncWindows.Load(), totalSyncElided.Load(),
		totalSyncWaits.Load(), totalSyncWidth.Load(), totalSyncYields.Load()
}

// Stats aggregates everything the paper's tables and figures need from one
// run. Raw counters are filled during the run; finalizeStats folds in the
// per-controller and network totals.
type Stats struct {
	cfg Config

	// ExecCycles is the cycle at which the last vCPU finished (Figure 6).
	ExecCycles uint64

	// Snoop accounting (Figures 7, 8, 10; Table IV's companion metric).
	SnoopsIssued uint64 // cores snooped per transaction, summed (incl requester)
	SnoopLookups uint64 // external tag lookups performed at caches

	// Network traffic (Table IV).
	ByteHops uint64
	Bytes    uint64
	Messages uint64

	// Protocol totals.
	Transactions uint64
	Retries      uint64
	Persistent   uint64
	Writebacks   uint64
	DRAMReads    uint64
	DRAMWrites   uint64

	// L1 accesses and L2 misses, total and on content-shared pages
	// (Table V), plus the L2 miss decomposition by context (Figure 1).
	L1Accesses        uint64
	L1AccessesContent uint64
	L2Accesses        uint64 // core-side L2 lookups (writes + L1-miss reads)
	L2Misses          uint64
	L2MissesContent   uint64
	L2MissesGuest     uint64
	L2MissesXen       uint64
	L2MissesDom0      uint64

	// Data-holder decomposition for L2 misses on content-shared pages
	// (Table VI): who could have supplied the block at miss time.
	HolderMemory  uint64 // no cache held it
	HolderIntraVM uint64 // a cache of the requesting VM held it
	HolderFriend  uint64 // a cache of the friend VM held it (not intra)
	HolderOther   uint64 // only caches of unrelated VMs held it

	// TLB events (sharing-type lookups happen at translation time).
	TLBHits       uint64
	TLBMisses     uint64
	TLBShootdowns uint64

	// RegionScout counters (populated only with Config.UseRegionScout).
	RegionNSRTHits   uint64
	RegionBroadcasts uint64

	// Directory counters (populated only with Config.Directory).
	DirLookups     uint64
	DirForwards    uint64
	DirInvalidates uint64

	// Hypervisor events.
	Cows     uint64
	MapSyncs uint64

	// Relocation bookkeeping (Figure 9).
	Relocations    uint64
	RemovalPeriods *stats.CDF

	MissLatency stats.Sample

	// EventsFired counts the discrete events executed by the engine(s) over
	// the whole run — the simulator's own work metric (events/sec in the
	// report footer). Never warmup-adjusted.
	EventsFired uint64

	// Sync holds the sharded engine's synchronization telemetry (windows,
	// barrier waits, elisions, window widths). Execution mechanics, not
	// simulation results: the values depend on the shard count and
	// synchronization mode, while every other counter in Stats stays
	// bit-identical across them. Zero for legacy (non-sharded) runs.
	Sync sim.SyncStats

	// Robustness counters (fault injection, graceful degradation, and
	// invariant checking). Whole-run, never warmup-adjusted: faults and
	// checks span the entire run including warmup.
	FaultsDropped       uint64 // transient requests destroyed
	FaultsBounced       uint64 // token-carrying messages redirected home
	FaultsDuplicated    uint64
	FaultsDelayed       uint64
	MapCorruptions      uint64
	CounterCorruptions  uint64
	StormRelocations    uint64
	FallbackCounterAug  uint64 // routes served by the counter-augmented map
	FallbackBroadcast   uint64 // routes served by degradation broadcast
	MapRebuilds         uint64
	CounterUnderflows   uint64
	InvariantChecks     uint64
	InvariantViolations []string

	warm    snapshot
	hasWarm bool
}

// snapshot records every cumulative counter at the end of the warmup
// phase; finalizeStats subtracts it so reported statistics cover only the
// measured (post-warm) phase.
type snapshot struct {
	l1Acc, l1AccC, l2Acc                    uint64
	l2Miss, l2MissC, l2G, l2X, l2D          uint64
	hMem, hIntra, hFriend, hOther           uint64
	snoops, lookups, txns, retries, persist uint64
	writebacks, dramR, dramW                uint64
	byteHops, bytes, messages, cows         uint64
	cycle                                   uint64
}

func (s *Stats) init(cfg Config) { s.cfg = cfg.sansControl() }

// takeSnapshot freezes domain d's warmup-phase counters. It runs when the
// last vCPU of the domain crosses WarmupRefs, and reads only state owned by
// the domain (its cores' controllers, its corner memory controller, its
// traffic slot, its engine's clock) — deterministic per domain, and safe
// while other shards execute concurrently. The legacy single domain owns
// everything, so this is exactly the old whole-machine snapshot there.
func (m *Machine) takeSnapshot(d *domain) {
	d.warmed = true
	s := d.st
	var bh, by, ms uint64
	if m.sharded != nil {
		bh, by, ms = m.Net.DomainTraffic(int(d.idx))
	} else {
		bh, by, ms = m.Net.ByteHops, m.Net.Bytes, m.Net.Messages
	}
	// COW traps land in the domain's own counter under the partitioned
	// overlay; the legacy global path still counts on the memory manager.
	cows := m.MM.CowCount
	if m.cowTargets != nil {
		cows = s.Cows
	}
	w := snapshot{
		l1Acc: s.L1Accesses, l1AccC: s.L1AccessesContent, l2Acc: s.L2Accesses,
		l2Miss: s.L2Misses, l2MissC: s.L2MissesContent,
		l2G: s.L2MissesGuest, l2X: s.L2MissesXen, l2D: s.L2MissesDom0,
		hMem: s.HolderMemory, hIntra: s.HolderIntraVM,
		hFriend: s.HolderFriend, hOther: s.HolderOther,
		byteHops: bh, bytes: by, messages: ms,
		cows:  cows,
		cycle: uint64(d.eng.Now()),
	}
	for _, ci := range d.cores {
		cn := m.cores[ci]
		if cn.dctrl != nil {
			w.txns += cn.dctrl.Stats.Transactions
			w.writebacks += cn.dctrl.Stats.Writebacks
			continue
		}
		w.snoops += cn.ctrl.Stats.SnoopsIssued
		w.lookups += cn.ctrl.Stats.SnoopLookups
		w.txns += cn.ctrl.Stats.Transactions
		w.retries += cn.ctrl.Stats.Retries
		w.persist += cn.ctrl.Stats.Persistent
		w.writebacks += cn.ctrl.Stats.Writebacks
	}
	for _, mi := range d.mcs {
		w.dramR += m.mcs[mi].Stats.DRAMReads
		w.dramW += m.mcs[mi].Stats.DRAMWrites
	}
	for _, hi := range d.homes {
		w.dramR += m.homes[hi].Stats.DRAMReads
		w.dramW += m.homes[hi].Stats.DRAMWrites
	}
	s.warm = w
	s.hasWarm = true
}

func (s *Stats) recordL1Access(vm mem.VMID, ctx workload.Ctx, pt mem.PageType) {
	s.L1Accesses++
	if pt == mem.PageROShared {
		s.L1AccessesContent++
	}
}

func (s *Stats) recordL2Miss(vm mem.VMID, ctx workload.Ctx, pt mem.PageType) {
	s.L2Misses++
	if pt == mem.PageROShared {
		s.L2MissesContent++
	}
	switch ctx {
	case workload.CtxGuest:
		s.L2MissesGuest++
	case workload.CtxXen:
		s.L2MissesXen++
	case workload.CtxDom0:
		s.L2MissesDom0++
	}
}

// classifyHolder implements the Table VI measurement: at an L2 miss on a
// content-shared page, find the best possible data holder. Serial-only:
// sharded runs take classifyPartitioned, which probes remote domains under
// the lookahead discipline instead of reading their caches directly. The
// single legacy domain owns every core, so scanning d.cores here covers
// the whole machine.
func (m *Machine) classifyHolder(d *domain, st *Stats, addr mem.BlockAddr, vm mem.VMID) {
	friend, hasFriend := m.MM.FriendOf(vm)
	intra, fr, other := false, false, false
	for _, ci := range d.cores {
		b := m.cores[ci].l2.Lookup(addr)
		if b == nil || b.Tokens == 0 {
			continue
		}
		switch {
		case b.VM == vm:
			intra = true
		case hasFriend && b.VM == friend:
			fr = true
		default:
			other = true
		}
	}
	switch {
	case intra:
		st.HolderIntraVM++
	case fr:
		st.HolderFriend++
	case other:
		st.HolderOther++
	default:
		st.HolderMemory++
	}
}

// applyWarm subtracts the warmup-phase snapshot so the reported statistics
// cover only the measured phase. No-op when no snapshot was taken.
func (s *Stats) applyWarm() {
	if !s.hasWarm {
		return
	}
	w := s.warm
	s.L1Accesses -= w.l1Acc
	s.L1AccessesContent -= w.l1AccC
	s.L2Accesses -= w.l2Acc
	s.L2Misses -= w.l2Miss
	s.L2MissesContent -= w.l2MissC
	s.L2MissesGuest -= w.l2G
	s.L2MissesXen -= w.l2X
	s.L2MissesDom0 -= w.l2D
	s.HolderMemory -= w.hMem
	s.HolderIntraVM -= w.hIntra
	s.HolderFriend -= w.hFriend
	s.HolderOther -= w.hOther
	s.SnoopsIssued -= w.snoops
	s.SnoopLookups -= w.lookups
	s.Transactions -= w.txns
	s.Retries -= w.retries
	s.Persistent -= w.persist
	s.Writebacks -= w.writebacks
	s.DRAMReads -= w.dramR
	s.DRAMWrites -= w.dramW
	s.ByteHops -= w.byteHops
	s.Bytes -= w.bytes
	s.Messages -= w.messages
	s.Cows -= w.cows
	if s.ExecCycles >= w.cycle {
		s.ExecCycles -= w.cycle
	}
}

func (m *Machine) finalizeStats() {
	if m.sharded != nil {
		m.finalizeSharded()
		return
	}
	s := &m.Stats
	for _, cn := range m.cores {
		if cn.dctrl != nil {
			s.Transactions += cn.dctrl.Stats.Transactions
			s.Writebacks += cn.dctrl.Stats.Writebacks
			continue
		}
		s.SnoopsIssued += cn.ctrl.Stats.SnoopsIssued
		s.SnoopLookups += cn.ctrl.Stats.SnoopLookups
		s.Transactions += cn.ctrl.Stats.Transactions
		s.Retries += cn.ctrl.Stats.Retries
		s.Persistent += cn.ctrl.Stats.Persistent
		s.Writebacks += cn.ctrl.Stats.Writebacks
	}
	for _, mc := range m.mcs {
		s.DRAMReads += mc.Stats.DRAMReads
		s.DRAMWrites += mc.Stats.DRAMWrites
	}
	for _, h := range m.homes {
		s.DRAMReads += h.Stats.DRAMReads
		s.DRAMWrites += h.Stats.DRAMWrites
		s.DirLookups += h.Stats.Lookups
		s.DirForwards += h.Stats.Forwards
		s.DirInvalidates += h.Stats.Invalidates
	}
	for _, cn := range m.cores {
		s.TLBHits += cn.tlb.Stats.Hits
		s.TLBMisses += cn.tlb.Stats.Misses
		s.TLBShootdowns += cn.tlb.Stats.Shootdowns
	}
	if m.rs != nil {
		rt := m.rs.Totals()
		s.RegionNSRTHits = rt.NSRTHits
		s.RegionBroadcasts = rt.Broadcasts
	}
	s.ByteHops = m.Net.ByteHops
	s.Bytes = m.Net.Bytes
	s.Messages = m.Net.Messages
	s.Cows = m.MM.CowCount
	s.MapSyncs = m.Filter.MapSyncs
	s.Relocations = m.Mapper.Relocations
	s.RemovalPeriods = &m.Filter.RemovalPeriods

	s.FallbackCounterAug = m.Filter.FallbackCounterAug()
	s.FallbackBroadcast = m.Filter.FallbackBroadcast()
	s.MapRebuilds = m.Filter.MapRebuilds()
	s.CounterUnderflows = m.Filter.Underflows()
	if m.Injector != nil {
		fs := m.Injector.TotalStats()
		s.FaultsDropped = fs.Dropped
		s.FaultsBounced = fs.Bounced
		s.FaultsDuplicated = fs.Duplicated
		s.FaultsDelayed = fs.Delayed
		s.MapCorruptions = fs.MapCorruptions
		s.CounterCorruptions = fs.CounterCorruptions
		s.StormRelocations = fs.StormRelocations
	}
	if m.Checker != nil {
		s.InvariantChecks = m.Checker.Checks
		s.InvariantViolations = m.Checker.Violations
	}
	s.EventsFired = m.Eng.Fired()
	totalEvents.Add(s.EventsFired)

	s.applyWarm()
}

// finalizeSharded folds the per-domain statistics into the machine totals.
// Per-domain sums (controller and DRAM counters, traffic, warm adjustment)
// happen first, in domain order; then counters add, latency samples merge,
// and ExecCycles takes the slowest domain. Global state (filter, mapper,
// memory manager, checker, injector) is read once at the end — the run is
// quiesced, so everything is stable.
func (m *Machine) finalizeSharded() {
	s := &m.Stats
	for _, d := range m.doms {
		st := d.st
		for _, ci := range d.cores {
			cn := m.cores[ci]
			if cn.dctrl != nil {
				st.Transactions += cn.dctrl.Stats.Transactions
				st.Writebacks += cn.dctrl.Stats.Writebacks
			} else {
				st.SnoopsIssued += cn.ctrl.Stats.SnoopsIssued
				st.SnoopLookups += cn.ctrl.Stats.SnoopLookups
				st.Transactions += cn.ctrl.Stats.Transactions
				st.Retries += cn.ctrl.Stats.Retries
				st.Persistent += cn.ctrl.Stats.Persistent
				st.Writebacks += cn.ctrl.Stats.Writebacks
			}
			st.TLBHits += cn.tlb.Stats.Hits
			st.TLBMisses += cn.tlb.Stats.Misses
			st.TLBShootdowns += cn.tlb.Stats.Shootdowns
		}
		for _, mi := range d.mcs {
			st.DRAMReads += m.mcs[mi].Stats.DRAMReads
			st.DRAMWrites += m.mcs[mi].Stats.DRAMWrites
		}
		for _, hi := range d.homes {
			h := m.homes[hi]
			st.DRAMReads += h.Stats.DRAMReads
			st.DRAMWrites += h.Stats.DRAMWrites
			st.DirLookups += h.Stats.Lookups
			st.DirForwards += h.Stats.Forwards
			st.DirInvalidates += h.Stats.Invalidates
		}
		st.ByteHops, st.Bytes, st.Messages = m.Net.DomainTraffic(int(d.idx))
		st.applyWarm()

		s.SnoopsIssued += st.SnoopsIssued
		s.SnoopLookups += st.SnoopLookups
		s.Transactions += st.Transactions
		s.Retries += st.Retries
		s.Persistent += st.Persistent
		s.Writebacks += st.Writebacks
		s.DRAMReads += st.DRAMReads
		s.DRAMWrites += st.DRAMWrites
		s.TLBHits += st.TLBHits
		s.TLBMisses += st.TLBMisses
		s.TLBShootdowns += st.TLBShootdowns
		s.ByteHops += st.ByteHops
		s.Bytes += st.Bytes
		s.Messages += st.Messages
		s.L1Accesses += st.L1Accesses
		s.L1AccessesContent += st.L1AccessesContent
		s.L2Accesses += st.L2Accesses
		s.L2Misses += st.L2Misses
		s.L2MissesContent += st.L2MissesContent
		s.L2MissesGuest += st.L2MissesGuest
		s.L2MissesXen += st.L2MissesXen
		s.L2MissesDom0 += st.L2MissesDom0
		s.HolderMemory += st.HolderMemory
		s.HolderIntraVM += st.HolderIntraVM
		s.HolderFriend += st.HolderFriend
		s.HolderOther += st.HolderOther
		s.DirLookups += st.DirLookups
		s.DirForwards += st.DirForwards
		s.DirInvalidates += st.DirInvalidates
		s.Cows += st.Cows
		s.MissLatency.Merge(&st.MissLatency)
		if st.ExecCycles > s.ExecCycles {
			s.ExecCycles = st.ExecCycles
		}
	}

	if m.cowTargets == nil {
		// Global COW path (no domain overlays): the manager's count is
		// authoritative, exactly as in legacy runs.
		s.Cows = m.MM.CowCount
	}
	s.Relocations = m.Mapper.Relocations
	if m.replicas != nil {
		// Replicated register file: event counters live on the owning
		// domain's replica; fold them, and merge the removal-period CDFs
		// into replica 0's (the run is quiesced, so this is safe).
		for _, rep := range m.replicas {
			s.MapSyncs += rep.MapSyncs
			s.FallbackCounterAug += rep.FallbackCounterAug()
			s.FallbackBroadcast += rep.FallbackBroadcast()
			s.MapRebuilds += rep.MapRebuilds()
			s.CounterUnderflows += rep.Underflows()
		}
		for _, rep := range m.replicas[1:] {
			m.replicas[0].RemovalPeriods.Merge(&rep.RemovalPeriods)
		}
		s.RemovalPeriods = &m.replicas[0].RemovalPeriods
	} else {
		s.MapSyncs = m.Filter.MapSyncs
		s.RemovalPeriods = &m.Filter.RemovalPeriods
		s.FallbackCounterAug = m.Filter.FallbackCounterAug()
		s.FallbackBroadcast = m.Filter.FallbackBroadcast()
		s.MapRebuilds = m.Filter.MapRebuilds()
		s.CounterUnderflows = m.Filter.Underflows()
	}
	if m.rs != nil {
		rt := m.rs.Totals()
		s.RegionNSRTHits = rt.NSRTHits
		s.RegionBroadcasts = rt.Broadcasts
	}
	if m.Injector != nil {
		fs := m.Injector.TotalStats()
		s.FaultsDropped = fs.Dropped
		s.FaultsBounced = fs.Bounced
		s.FaultsDuplicated = fs.Duplicated
		s.FaultsDelayed = fs.Delayed
		s.MapCorruptions = fs.MapCorruptions
		s.CounterCorruptions = fs.CounterCorruptions
		s.StormRelocations = fs.StormRelocations
	}
	if m.Checker != nil {
		s.InvariantChecks = m.Checker.Checks
		s.InvariantViolations = m.Checker.Violations
	}
	s.EventsFired = m.sharded.Fired()
	totalEvents.Add(s.EventsFired)
	s.Sync = m.sharded.Telemetry()
	totalSyncWindows.Add(s.Sync.Windows)
	totalSyncElided.Add(s.Sync.ElidedBarriers)
	totalSyncWaits.Add(s.Sync.BarrierWaits)
	totalSyncWidth.Add(s.Sync.WindowWidthSum)
	totalSyncYields.Add(s.Sync.Yields)
}

// SnoopsPerTransaction returns the mean cores snooped per transaction.
func (s *Stats) SnoopsPerTransaction() float64 {
	if s.Transactions == 0 {
		return 0
	}
	return float64(s.SnoopsIssued) / float64(s.Transactions)
}

// ContentAccessPct returns Table V column 1 (percent of L1 accesses to
// content-shared pages).
func (s *Stats) ContentAccessPct() float64 {
	return stats.Normalize(float64(s.L1AccessesContent), float64(s.L1Accesses))
}

// ContentMissPct returns Table V column 2 (percent of L2 misses on
// content-shared pages).
func (s *Stats) ContentMissPct() float64 {
	return stats.Normalize(float64(s.L2MissesContent), float64(s.L2Misses))
}

// HypervisorMissPct returns the Figure 1 quantity: percent of L2 misses by
// the hypervisor plus dom0.
func (s *Stats) HypervisorMissPct() float64 {
	return stats.Normalize(float64(s.L2MissesXen+s.L2MissesDom0), float64(s.L2Misses))
}
