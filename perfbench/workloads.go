package main

import (
	"fmt"

	"vsnoop"
	"vsnoop/internal/core"
	"vsnoop/internal/system"
)

// simCase is one simulation a workload repetition runs.
type simCase struct {
	label string
	cfg   vsnoop.Config
}

// spec is a named workload: a set of simulations. A repetition runs every sim once:
// serially when workers is 0, through runner.Map with that many workers
// otherwise.
type spec struct {
	name    string
	sims    []simCase
	workers int
	// refShards is the shard count of the reference run each sim's digest
	// must match; -1 runs the reference at the sim's own shard count.
	refShards int
	// setupRounds is how many times the setup probe builds every sim:
	// enough for a steady median, about a second of builds.
	setupRounds int
}

// Sweep cross product: every app under every variant, short runs so that
// setup is a large share of each simulation.
var (
	sweepApps     = []string{"fft", "ocean", "canneal", "specjbb"}
	sweepVariants = []string{"tokenb", "base", "counter", "friend"}
)

const (
	sweepRefs   = 2000
	sweepWarmup = 500
)

// workloadNames lists the workloads in the order BENCHMARK.json declares.
var workloadNames = []string{"pinned", "storm-sharded", "sweep"}

// newWorkload builds the named workload for a seed on a machine with nproc
// CPUs.
func newWorkload(name string, seed uint64, nproc int) (*spec, error) {
	switch name {
	case "pinned":
		cfg := vsnoop.DefaultConfig()
		cfg.Seed = seed
		return &spec{name: name, refShards: -1, setupRounds: 801,
			sims: []simCase{{label: "fft/base/pinned", cfg: cfg}}}, nil
	case "storm-sharded":
		cfg := vsnoop.DefaultConfig()
		cfg.Seed = seed
		cfg.Policy = vsnoop.PolicyCounter
		cfg.MigrationPeriodMs = 0.5
		cfg.Shards = vsnoop.AutoShards(cfg, nproc)
		return &spec{name: name, refShards: 1, setupRounds: 801,
			sims: []simCase{{label: "fft/counter/storm", cfg: cfg}}}, nil
	case "sweep":
		w := &spec{name: name, workers: nproc, refShards: -1, setupRounds: 31}
		for _, app := range sweepApps {
			for _, v := range sweepVariants {
				cfg := vsnoop.DefaultConfig()
				cfg.Seed = seed
				cfg.Workload = app
				cfg.RefsPerVCPU = sweepRefs
				cfg.WarmupRefs = sweepWarmup
				switch v {
				case "tokenb":
					cfg.Policy = vsnoop.PolicyBroadcast
				case "counter":
					cfg.Policy = vsnoop.PolicyCounter
					cfg.MigrationPeriodMs = 2.5
				case "friend":
					cfg.ContentSharing = true
					cfg.Content = vsnoop.ContentFriendVM
					cfg.Hypervisor = true
				}
				w.sims = append(w.sims, simCase{label: app + "/" + v, cfg: cfg})
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// shards returns the shard count the workload's sims run at.
func (w *spec) shards() int { return w.sims[0].cfg.Shards }

// refsPerRep returns the references all vCPUs of one repetition execute.
func (w *spec) refsPerRep() int {
	n := 0
	for _, s := range w.sims {
		n += s.cfg.VMs * s.cfg.VCPUsPerVM * s.cfg.RefsPerVCPU
	}
	return n
}

// toSystem maps a public configuration onto the internal one as
// vsnoop.Run does, field for field. The timed repetitions call vsnoop.Run
// itself; this copy serves only the setup probe and the traced
// repetitions, which clock system.New and Machine.RunChecked apart. Their
// statistics must still equal vsnoop.Run's reference digests.
func toSystem(cfg vsnoop.Config) (system.Config, error) {
	sc := system.DefaultConfig()
	if cfg.Fault != nil {
		return sc, fmt.Errorf("perfbench: fault plans are not supported")
	}
	if cfg.Cores > 0 {
		sc.Cores = cfg.Cores
	}
	if cfg.VMs > 0 {
		sc.VMs = cfg.VMs
	}
	if cfg.VCPUsPerVM > 0 {
		sc.VCPUsPerVM = cfg.VCPUsPerVM
	}
	switch {
	case len(cfg.WorkloadPerVM) > 0:
		sc.Workloads = cfg.WorkloadPerVM
	case cfg.Workload != "":
		sc.Workloads = []string{cfg.Workload}
	default:
		return sc, fmt.Errorf("perfbench: no workload configured")
	}
	sc.Filter = core.Config{
		Policy:    core.Policy(cfg.Policy),
		Content:   core.ContentPolicy(cfg.Content),
		Threshold: cfg.Threshold,
	}
	if cfg.RefsPerVCPU > 0 {
		sc.RefsPerVCPU = cfg.RefsPerVCPU
	}
	sc.WarmupRefs = cfg.WarmupRefs
	sc.MigrationPeriodMs = cfg.MigrationPeriodMs
	if cfg.CyclesPerMs > 0 {
		sc.CyclesPerMs = cfg.CyclesPerMs
	}
	sc.ContentSharing = cfg.ContentSharing
	sc.NoHypervisor = !cfg.Hypervisor
	sc.Checks = cfg.Checks
	sc.MaxSteps = cfg.MaxSteps
	sc.Shards = cfg.Shards
	sc.ForceSerial = cfg.ForceSerial
	sc.NoElision = cfg.NoElision
	sc.Mode = cfg.Mode
	if cfg.Seed != 0 {
		sc.Seed = cfg.Seed
	}
	return sc, nil
}
