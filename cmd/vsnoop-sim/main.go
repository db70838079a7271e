// Command vsnoop-sim runs a single simulation with the given knobs and
// prints the full statistics record — the workhorse for interactive
// exploration of the virtual-snooping design space.
//
// Usage:
//
//	vsnoop-sim -workload fft -policy counter -period 2.5 -refs 40000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vsnoop"
	"vsnoop/internal/prof"
	"vsnoop/internal/report"
)

func main() {
	maxProcs := runtime.GOMAXPROCS(0) //lint:wallclock CLI entry reads host parallelism once; it only seeds the -shards/-workers defaults, never sim state
	var profiles prof.Flags
	profiles.AddFlags(nil)
	workloadFlag := flag.String("workload", "fft", "application profile (comma-separated for per-VM mix); see -list")
	policyFlag := flag.String("policy", "base", "snoop policy: tokenb, base, counter, counter-threshold, counter-flush")
	contentFlag := flag.String("content", "broadcast", "content policy: broadcast, memory-direct, intra-vm, friend-vm")
	refs := flag.Int("refs", 30000, "references per vCPU (measured phase)")
	warmup := flag.Int("warmup", 6000, "warmup references per vCPU (excluded from stats)")
	period := flag.Float64("period", 0, "vCPU migration period in ms (0 = pinned)")
	cyclesPerMs := flag.Uint64("cycles-per-ms", 100000, "cycles per scheduler millisecond")
	vms := flag.Int("vms", 4, "number of VMs")
	vcpus := flag.Int("vcpus", 4, "vCPUs per VM")
	sharing := flag.Bool("content-sharing", false, "enable content-based page sharing")
	hypervisor := flag.Bool("hypervisor", false, "enable hypervisor/dom0 activity")
	threshold := flag.Int("threshold", 10, "counter-threshold cutoff")
	seed := flag.Uint64("seed", 1, "run seed")
	list := flag.Bool("list", false, "list workloads and exit")
	check := flag.Bool("check", false, "enable online coherence invariant checking")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for the run (0 = none); a timed-out run exits nonzero")
	shardsFlag := flag.String("shards", "0", `parallel event-queue shards: a count, or "auto" for min(planned snoop domains, GOMAXPROCS) (0 or 1 = serial; results are bit-identical)`)
	modeFlag := flag.String("mode", "", `sharded synchronization engine: adaptive or windowed; "" is the default dispatch (adaptive) — results are bit-identical across modes`)
	dumpPartition := flag.Bool("dump-partition", false, "print the planner's snoop-domain cut (domain grid, cut edges, horizons) and exit")
	noElision := flag.Bool("no-elision", false, "force fully-barriered window synchronization (disable adaptive free-running and barrier elision)")
	maxSteps := flag.Uint64("max-steps", 0, "abort after this many simulation events (0 = unbounded)")
	faultSeed := flag.Uint64("fault-seed", 0, "fault plan seed (mixed with -seed)")
	faultDrop := flag.Float64("fault-drop", 0, "percent of transient requests destroyed (responses bounced home)")
	faultDup := flag.Float64("fault-dup", 0, "percent of transient requests duplicated")
	faultDelay := flag.Float64("fault-delay", 0, "percent of non-persistent messages delayed")
	faultDelayMax := flag.Int("fault-delay-max", 0, "max extra delivery cycles for delayed messages (default 200)")
	faultLinks := flag.Int("fault-links", 0, "number of degraded (slow) mesh links")
	faultLinkFactor := flag.Int("fault-link-factor", 0, "serialization multiplier on degraded links (default 4)")
	faultCorruptMap := flag.String("fault-corrupt-map", "", `corrupt a vCPU map register: "cycle,vm,core" (core -1 clears the map)`)
	faultCorruptCtr := flag.String("fault-corrupt-counter", "", `corrupt a residence counter: "cycle,vm,core,delta"`)
	faultStorm := flag.String("fault-storm", "", `migration storm: "cycle,swaps"`)
	flag.Parse()

	if *list {
		for _, w := range vsnoop.Workloads() {
			fmt.Println(w)
		}
		return
	}

	cfg := vsnoop.DefaultConfig()
	if names := strings.Split(*workloadFlag, ","); len(names) > 1 {
		cfg.WorkloadPerVM = names
		cfg.Workload = ""
	} else {
		cfg.Workload = *workloadFlag
	}
	switch *policyFlag {
	case "tokenb", "broadcast":
		cfg.Policy = vsnoop.PolicyBroadcast
	case "base":
		cfg.Policy = vsnoop.PolicyBase
	case "counter":
		cfg.Policy = vsnoop.PolicyCounter
	case "counter-threshold":
		cfg.Policy = vsnoop.PolicyCounterThreshold
	case "counter-flush":
		cfg.Policy = vsnoop.PolicyCounterFlush
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyFlag)
		os.Exit(2)
	}
	switch *contentFlag {
	case "broadcast":
		cfg.Content = vsnoop.ContentBroadcast
	case "memory-direct":
		cfg.Content = vsnoop.ContentMemoryDirect
	case "intra-vm":
		cfg.Content = vsnoop.ContentIntraVM
	case "friend-vm":
		cfg.Content = vsnoop.ContentFriendVM
	default:
		fmt.Fprintf(os.Stderr, "unknown content policy %q\n", *contentFlag)
		os.Exit(2)
	}
	cfg.VMs = *vms
	cfg.VCPUsPerVM = *vcpus
	cfg.RefsPerVCPU = *refs
	cfg.WarmupRefs = *warmup
	cfg.MigrationPeriodMs = *period
	cfg.CyclesPerMs = *cyclesPerMs
	cfg.ContentSharing = *sharing
	cfg.Hypervisor = *hypervisor
	cfg.Threshold = *threshold
	cfg.Seed = *seed
	cfg.Checks = *check
	cfg.NoElision = *noElision
	cfg.MaxSteps = *maxSteps

	plan := &vsnoop.FaultPlan{
		Seed:              *faultSeed,
		DropPct:           *faultDrop,
		DupPct:            *faultDup,
		DelayPct:          *faultDelay,
		DelayMax:          *faultDelayMax,
		DegradedLinks:     *faultLinks,
		LinkDegradeFactor: *faultLinkFactor,
	}
	if *faultCorruptMap != "" {
		v := parseEvent("fault-corrupt-map", *faultCorruptMap, 3)
		plan.Events = append(plan.Events, vsnoop.FaultEvent{
			AtCycle: uint64(v[0]), Kind: vsnoop.FaultCorruptMap, VM: int(v[1]), Core: int(v[2]),
		})
	}
	if *faultCorruptCtr != "" {
		v := parseEvent("fault-corrupt-counter", *faultCorruptCtr, 4)
		plan.Events = append(plan.Events, vsnoop.FaultEvent{
			AtCycle: uint64(v[0]), Kind: vsnoop.FaultCorruptCounter,
			VM: int(v[1]), Core: int(v[2]), Count: int(v[3]),
		})
	}
	if *faultStorm != "" {
		v := parseEvent("fault-storm", *faultStorm, 2)
		plan.Events = append(plan.Events, vsnoop.FaultEvent{
			AtCycle: uint64(v[0]), Kind: vsnoop.FaultMigrationStorm, Count: int(v[1]),
		})
	}
	faultActive := plan.DropPct > 0 || plan.DupPct > 0 || plan.DelayPct > 0 ||
		plan.DegradedLinks > 0 || len(plan.Events) > 0
	if faultActive {
		cfg.Fault = plan
	}
	// Resolved after the whole config is built ("auto" asks the partition
	// planner); maxProcs was read once at program entry so the simulation
	// packages stay free of machine-environment reads.
	cfg.Shards = resolveShards(*shardsFlag, cfg, maxProcs)
	cfg.Mode = *modeFlag
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *dumpPartition {
		info, err := vsnoop.PartitionInfo(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(info)
		return
	}

	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now() //lint:wallclock wall-time progress metric printed to stderr; results carry only sim-clock figures
	res, err := vsnoop.RunCtx(ctx, cfg)
	wall := time.Since(start) //lint:wallclock wall-time progress metric printed to stderr; results carry only sim-clock figures
	profiles.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := res.Stats

	fmt.Printf("workload=%s policy=%s content=%s period=%.2fms\n",
		*workloadFlag, cfg.Policy, cfg.Content, *period)
	fmt.Printf("%-28s %d\n", "exec cycles", res.ExecCycles)
	fmt.Printf("%-28s %d\n", "L1 accesses", st.L1Accesses)
	fmt.Printf("%-28s %d (%.2f%%)\n", "L2 misses", st.L2Misses,
		100*float64(st.L2Misses)/float64(st.L1Accesses))
	fmt.Printf("%-28s %d\n", "coherence transactions", st.Transactions)
	fmt.Printf("%-28s %.2f\n", "snoops per transaction", res.SnoopsPerTransaction)
	fmt.Printf("%-28s %d\n", "snoop tag lookups", st.SnoopLookups)
	fmt.Printf("%-28s %d\n", "traffic (byte-hops)", res.TrafficByteHops)
	fmt.Printf("%-28s %d / %d\n", "retries / persistent", st.Retries, st.Persistent)
	fmt.Printf("%-28s %d / %d\n", "DRAM reads / writes", st.DRAMReads, st.DRAMWrites)
	fmt.Printf("%-28s %d\n", "writebacks", st.Writebacks)
	fmt.Printf("%-28s %d\n", "vCPU relocations", res.Relocations)
	fmt.Printf("%-28s %d\n", "vCPU map syncs", st.MapSyncs)
	fmt.Printf("%-28s %.1f cycles\n", "avg miss latency", st.MissLatency.Mean())
	if *hypervisor {
		fmt.Printf("%-28s %.2f%%\n", "hypervisor+dom0 miss share", res.HypervisorMissPct)
	}
	if *sharing {
		fmt.Printf("%-28s %.2f%% / %.2f%%\n", "content access/miss share",
			res.ContentAccessPct, res.ContentMissPct)
		fmt.Printf("%-28s %d\n", "copy-on-writes", st.Cows)
	}
	if cfg.Fault != nil || cfg.Checks {
		report.Robustness(os.Stdout, st)
	}
	fmt.Printf("\n%d events in %s (%.0f events/sec, shards=%d)\n",
		res.EventsFired, wall.Round(time.Millisecond),
		float64(res.EventsFired)/wall.Seconds(), cfg.Shards)
	if sy := st.Sync; sy.Windows > 0 {
		fmt.Printf("sync: %d windows, %d barriers elided, mean window %.0f cycles, %d yields (domains=%d, shards=%d)\n",
			sy.Windows, sy.ElidedBarriers, sy.MeanWindowWidth(), sy.Yields,
			vsnoop.PlannedDomains(cfg), cfg.Shards)
	}
}

// resolveShards parses the -shards flag: "auto" resolves against the fully
// built configuration through the partition planner (min of the planned
// snoop-domain count and GOMAXPROCS), anything else must be a non-negative
// integer.
func resolveShards(s string, cfg vsnoop.Config, maxProcs int) int {
	if s == "auto" {
		return vsnoop.AutoShards(cfg, maxProcs)
	}
	k, err := strconv.Atoi(s)
	if err != nil || k < 0 {
		fmt.Fprintf(os.Stderr, "-shards: want a non-negative integer or \"auto\", got %q\n", s)
		os.Exit(2)
	}
	return k
}

// parseEvent parses an n-field comma-separated integer flag value.
func parseEvent(name, s string, n int) []int64 {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		fmt.Fprintf(os.Stderr, "-%s: want %d comma-separated integers, got %q\n", name, n, s)
		os.Exit(2)
	}
	out := make([]int64, n)
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-%s: bad field %q: %v\n", name, p, err)
			os.Exit(2)
		}
		out[i] = v
	}
	return out
}
