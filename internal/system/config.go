// Package system assembles the full simulated machine: in-order cores with
// private L1/L2 caches on a 2D mesh, Token Coherence with the virtual-
// snooping filter, memory controllers, the hypervisor's vCPU mapper with
// periodic relocation, memory virtualization with content-based sharing,
// and the synthetic workload generators. It is the engine behind every
// Section V / VI experiment.
package system

import (
	"fmt"

	"vsnoop/internal/cache"
	"vsnoop/internal/core"
	"vsnoop/internal/fault"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/tlb"
	"vsnoop/internal/token"
)

// Config describes one simulation run. DefaultConfig reproduces Table II.
type Config struct {
	Cores      int
	VMs        int
	VCPUsPerVM int

	Mesh mesh.Config
	L1   cache.Config
	L2   cache.Config
	TLB  tlb.Config
	P    token.Params

	Filter core.Config

	// Workloads names the profile run by each VM (length VMs; a single
	// entry is replicated, matching the paper's homogeneous setups).
	Workloads []string

	// RefsPerVCPU is the stream length each vCPU executes.
	RefsPerVCPU int
	// WarmupRefs is the number of initial references per vCPU excluded
	// from statistics (cache-warming phase, standard simulation
	// methodology: the paper's workloads run long enough that cold-start
	// compulsory misses are negligible; our streams are short, so we
	// measure only the post-warm phase).
	WarmupRefs int
	// ThinkCycles separates successive references of a vCPU.
	ThinkCycles sim.Cycle

	// CyclesPerMs scales scheduler time to simulator cycles. The paper's
	// machines run ~2-3 GHz (so 1 ms is millions of cycles); the default
	// compresses a "millisecond" to 100k cycles so migration-period sweeps
	// finish quickly while keeping migration periods well above cache
	// turnover times. EXPERIMENTS.md documents this scaling.
	CyclesPerMs uint64

	// MigrationPeriodMs shuffles two vCPUs of different VMs every period
	// (0 = ideally pinned VMs).
	MigrationPeriodMs float64

	// ContentSharing runs the idealized content-based page-sharing
	// detector at setup (Section VI experiments).
	ContentSharing bool

	// NoHypervisor suppresses hypervisor/dom0 activity, matching the
	// paper's Virtual-GEMS methodology for Sections V and VI ("in this
	// simulation environment, a hypervisor is not running").
	NoHypervisor bool

	// HvPages sizes the RW-shared hypervisor/dom0 region (pages).
	HvPages int

	// CowLatency is the hypervisor's copy-on-write handling cost.
	CowLatency sim.Cycle

	// MCs is the number of memory controllers (placed at mesh corners).
	MCs int

	// LinearPlacement places vCPUs on consecutive cores row-major instead
	// of per-VM mesh quadrants (an ablation of the locality-aware
	// placement that shortens intra-VM snoop paths).
	LinearPlacement bool

	// UseRegionScout replaces the virtual-snooping filter with a
	// RegionScout-style region filter (related-work comparison; the
	// Filter.Policy setting is ignored for routing when set).
	UseRegionScout bool

	// Directory replaces the snooping Token Coherence protocol with the
	// blocking home-directory MESI protocol (related-work comparison:
	// Marty & Hill's directory-based approach to virtualized coherence).
	// Snoop filtering does not apply; the Filter settings are ignored.
	Directory bool

	// Fault, if non-nil and active, enables deterministic fault injection
	// (internal/fault) and graceful map degradation in the filter. It also
	// implies Checks. Token-protocol runs only.
	Fault *fault.Plan

	// Checks enables online invariant checking (internal/check) even
	// without a fault plan. Checks are observation-only: results of a run
	// are bit-identical with and without them.
	Checks bool
	// CheckPeriod is the invariant-check interval in cycles (0 = 5000).
	CheckPeriod sim.Cycle
	// TxnAgeLimit bounds how long one coherence transaction may stay
	// outstanding before the completion invariant flags it (0 = 500k).
	TxnAgeLimit sim.Cycle

	// Shards is the number of parallel event-queue shards (0 or 1 = one
	// worker). Results are bit-identical for every value: the semantic
	// event ordering is fixed by the config alone (see PlanPartition), and
	// Shards only chooses how many goroutines execute the computed domains.
	// Clamped to the planned domain count.
	Shards int

	// ForceSerial builds the single-queue legacy engine regardless of the
	// partition plan. Internal knob for benchmarks and differential tests
	// (not part of the public vsnoop.Config, excluded from Config.Hash).
	ForceSerial bool

	// NoElision forces the fully-barriered windowed synchronization
	// protocol on sharded runs: no adaptive free-running, no quiet-window
	// barrier elision. Results are bit-identical with and without it; the
	// flag pins the synchronization mode for tests and benchmarks.
	NoElision bool

	// Mode selects the sharded engine's synchronization engine: "" (the
	// default dispatch: adaptive free-running unless something observes
	// window boundaries), "adaptive" (the same), or "windowed" (fully
	// barriered). Results are bit-identical for every value — a mode is
	// an execution strategy, not a different simulation — so Mode is
	// excluded from the public config hash, like Shards.
	Mode string

	// Cancel, if non-nil, lets another goroutine stop the run early; a
	// canceled run fails with a sim.CanceledError instead of returning a
	// partial result. Control plane only: a run that completes before the
	// canceler trips is bit-identical to one with no canceler attached.
	Cancel *sim.Canceler

	// MaxSteps bounds the run's executed event count; RunChecked returns a
	// sim.StepLimitError when exhausted (0 = unbounded).
	MaxSteps uint64
	// ProgressLimit arms the no-forward-progress watchdog: an error after
	// this many events without a completed reference (0 = 10M).
	ProgressLimit uint64

	Seed uint64
}

// DefaultConfig returns the Table II system: 16 in-order cores, 32 KB L1,
// 256 KB private L2, Token Coherence (MOESI), 4x4 mesh with 16 B links,
// four VMs with four vCPUs each.
func DefaultConfig() Config {
	return Config{
		Cores:       16,
		VMs:         4,
		VCPUsPerVM:  4,
		Mesh:        mesh.DefaultConfig(),
		L1:          cache.Config{Name: "L1", SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 64, HitLatency: 2},
		L2:          cache.Config{Name: "L2", SizeBytes: 256 * 1024, Ways: 8, BlockBytes: 64, HitLatency: 10},
		TLB:         tlb.DefaultConfig(),
		P:           token.DefaultParams(16),
		Filter:      core.Config{Policy: core.PolicyBase, Content: core.ContentBroadcast, Threshold: 10},
		Workloads:   []string{"fft"},
		RefsPerVCPU: 20000,
		ThinkCycles: 2,
		CyclesPerMs: 100_000,
		HvPages:     512,
		CowLatency:  2000,
		MCs:         4,
		Seed:        1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.VMs <= 0 || c.VCPUsPerVM <= 0 {
		return fmt.Errorf("system: non-positive core/VM counts")
	}
	if c.VMs*c.VCPUsPerVM > c.Cores {
		return fmt.Errorf("system: %d vCPUs exceed %d cores (overcommit is not modeled, as in the paper)",
			c.VMs*c.VCPUsPerVM, c.Cores)
	}
	if c.Mesh.Width*c.Mesh.Height != c.Cores {
		return fmt.Errorf("system: mesh %dx%d does not host %d cores",
			c.Mesh.Width, c.Mesh.Height, c.Cores)
	}
	if len(c.Workloads) != 1 && len(c.Workloads) != c.VMs {
		return fmt.Errorf("system: %d workloads for %d VMs", len(c.Workloads), c.VMs)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.TLB.Validate(); err != nil {
		return err
	}
	if c.RefsPerVCPU <= 0 {
		return fmt.Errorf("system: RefsPerVCPU must be positive")
	}
	if c.MCs <= 0 || c.MCs > 4 {
		return fmt.Errorf("system: MCs must be 1..4 (mesh corners)")
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if c.Fault.Active() && c.Directory {
		return fmt.Errorf("system: fault injection targets the token protocol; not supported with Directory")
	}
	for i, ev := range c.faultEvents() {
		if ev.VM >= c.VMs {
			return fmt.Errorf("system: fault event %d targets VM %d of %d", i, ev.VM, c.VMs)
		}
		if ev.Core >= c.Cores {
			return fmt.Errorf("system: fault event %d targets core %d of %d", i, ev.Core, c.Cores)
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("system: negative Shards")
	}
	switch c.Mode {
	case "", "adaptive", "windowed":
	case "timewarp", "auto":
		return fmt.Errorf("system: Mode %q was removed with the optimistic engine; results are identical under the default engine (Mode \"\")", c.Mode)
	default:
		return fmt.Errorf("system: unknown Mode %q (want \"\", adaptive, or windowed)", c.Mode)
	}
	return nil
}

// Shardable reports whether this configuration runs the domain-partitioned
// parallel engine: true whenever the topology-aware partition planner
// (PlanPartition) cuts the mesh into more than one snoop domain. CLIs use
// it to resolve `-shards auto`; PlannedDomains bounds the useful worker
// count. The domain decomposition — and therefore the simulated event
// order — is a pure function of the config, never of Shards, so results
// are bit-identical for every shard count.
func (c Config) Shardable() bool { return c.PlanPartition().Domains > 1 }

// PlannedDomains returns the snoop-domain count the partition planner
// computes for this config (1 = serial legacy engine).
func (c Config) PlannedDomains() int { return c.PlanPartition().Domains }

// sansControl returns the config with control-plane fields cleared. Stats
// snapshots this form, so two runs of the same simulation compare deeply
// equal no matter how they were driven (with or without a Canceler).
func (c Config) sansControl() Config {
	c.Cancel = nil
	return c
}

// faultEvents returns the plan's events (nil-safe).
func (c Config) faultEvents() []fault.Event {
	if c.Fault == nil {
		return nil
	}
	return c.Fault.Events
}

// workloadFor returns the profile name of VM i.
func (c Config) workloadFor(vm int) string {
	if len(c.Workloads) == 1 {
		return c.Workloads[0]
	}
	return c.Workloads[vm]
}
