// Command perfbench is the simulator's host-time benchmark. It runs one
// named workload (pinned, storm-sharded or sweep) for a fixed time, checks
// every simulation's statistics against reference runs, and prints its
// metrics by name with their units; the last line of standard output is a
// JSON summary. With -trace 1 it adds a traced phase (spans around each
// layer call and a CPU profile attributed to the repository's modules) and
// the layer micro-drives, and reports the per-layer metrics instead.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload pinned --seed 1 --seconds 20 --trace 0
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// buildCommit is the repository revision, set at link time by run.py.
var buildCommit = "unknown"

// traceDir receives the traced phase's spans and CPU profile, relative to
// the repository root the command runs from.
const traceDir = ".bench_build/trace"

// defaultSeed is the seed whose reference digests reference.json records.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

// metric is one reported value with its unit, its sample count and an
// optional note for the human-readable lines.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: pinned, storm-sharded or sweep")
		seed     = flag.Uint64("seed", defaultSeed, "input seed, passed to every simulation's Config.Seed")
		seconds  = flag.Int("seconds", 10, "measurement time in seconds (1-60)")
		traced   = flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
		writeRef = flag.String("write-reference", "", "record this run's reference digests (default seed only) in `file`")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be 1-60 and -trace 0 or 1")
		return 2
	}
	nproc := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < nproc {
		nproc = p
	}
	w, err := newWorkload(*name, *seed, nproc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	recorded := map[string]map[string]string{}
	if err := json.Unmarshal(referenceJSON, &recorded); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference.json:", err)
		return 2
	}

	b, err := newBench(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	refWall := b.reference()
	if w.refShards >= 0 {
		// A second, warm pass times the reference shard count against the
		// workload's own (the K=1 vs K=nproc gap) and checks it repeats.
		first := b.want
		refWall = b.reference()
		for i := range first {
			if first[i] != b.want[i] {
				b.fail(w.sims[i].label, "reference digest changed between passes")
			}
		}
		fmt.Printf("reference_wall_s %.6f s (Shards=%d, warm pass, vs Shards=%d timed below)\n",
			refWall, w.refShards, w.shards())
	}
	if *seed == defaultSeed {
		b.checkRecorded(recorded[w.name])
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef, *seed, w.name, w.sims, b.want); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	t0 := time.Now()
	probe, err := b.probeSetup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("setup probe: %d rounds in %.2f s\n", len(probe.setup), time.Since(t0).Seconds())

	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]metric
	if *traced == 0 {
		reps := b.measure(budget, nil)
		metrics = endToEnd(reps, probe)
	} else {
		metrics, err = b.tracedMetrics(budget, probe.alloc, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	stormShards := w.shards()
	if w.name != "storm-sharded" {
		if s, err := newWorkload("storm-sharded", *seed, nproc); err == nil {
			stormShards = s.shards()
		}
	}
	samples := map[string]int{}
	for k, m := range metrics {
		samples[k] = m.n
	}
	manifest := map[string]any{
		"workload": w.name, "seed": *seed, "trace": *traced, "seconds": *seconds,
		"commit": buildCommit, "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"storm_shards": stormShards, "sweep_workers": nproc, "samples": samples,
	}
	mj, _ := json.Marshal(manifest)
	fmt.Printf("manifest %s\n", mj)
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := metrics[k]
		fmt.Printf("%s %v %s (n=%d%s)\n", k, m.Value, m.Unit, m.n, m.note)
	}
	fmt.Printf("failed_frac %v ratio (%d of %d simulations)\n",
		ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)

	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			metrics[k] = m
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0 && b.attempted > 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// endToEnd derives the user-facing metrics from untraced repetitions and
// the setup probe.
func endToEnd(reps []repResult, probe setupProbe) map[string]metric {
	var walls, runs, tails, allocs []float64
	for _, r := range reps {
		walls = append(walls, r.wall)
		allocs = append(allocs, float64(r.alloc)/mib)
		var repRuns []float64
		for _, s := range r.sims {
			if s.err == nil {
				repRuns = append(repRuns, s.run)
			}
		}
		runs = append(runs, repRuns...)
		if len(repRuns) > 0 {
			tails = append(tails, quantile(repRuns, 0.9))
		}
	}
	heap := math.Inf(-1)
	for _, h := range probe.heap {
		heap = math.Max(heap, h)
	}
	return map[string]metric{
		"wall_s":    {Value: median(walls), Unit: "s", n: len(walls)},
		"setup_s":   {Value: median(probe.setup), Unit: "s", n: len(probe.setup)},
		"run_s_p50": {Value: median(runs), Unit: "s", n: len(runs)},
		// The tail is taken across the simulations of one repetition, the
		// slow configurations, and its median over repetitions keeps a
		// passing host stall out of it.
		"run_s_p90": {Value: median(tails), Unit: "s", n: len(tails),
			note: fmt.Sprintf(", median over repetitions of p90 over %d simulations", len(reps[0].sims))},
		"alloc_mb": {Value: median(allocs), Unit: "MiB", n: len(allocs)},
		"heap_mb":  {Value: heap, Unit: "MiB", n: len(probe.heap)},
	}
}

// tracedMetrics measures untraced repetitions for half the budget and
// traced ones (spans plus a CPU profile) for the other half, then runs the
// layer micro-drives, and returns the per-layer metrics.
func (b *bench) tracedMetrics(budget time.Duration, newAllocs []float64, seed uint64) (map[string]metric, error) {
	plain := b.measure(budget/2, nil)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := b.measure(budget/2, tr)
	pprof.StopCPUProfile()

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, fmt.Errorf("trace output: %w", err)
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", b.w.name, seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("trace output: %w", err)
	}
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return nil, fmt.Errorf("trace output: %w", err)
	}
	samples, err := readProfile(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	ns, total, ticks := attribute(samples)

	m := map[string]metric{}
	put := func(name, unit string, v float64, n int) { m[name] = metric{Value: v, Unit: unit, n: n} }

	var plainWall, tracedWall, mallocs, gcs []float64
	refs := float64(b.w.refsPerRep())
	for _, r := range plain {
		plainWall = append(plainWall, r.wall)
		mallocs = append(mallocs, float64(r.mallocs)/refs)
		gcs = append(gcs, float64(r.gcs))
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.wall)
	}
	put("trace.overhead_pct", "%", 100*(median(tracedWall)/median(plainWall)-1), len(tracedWall))
	put("go.mallocs_per_ref", "count", median(mallocs), len(mallocs))
	put("go.gc_cycles", "count", median(gcs), len(gcs))

	news, runsT := tr.durations("system.New"), tr.durations("system.RunChecked")
	put("system.new_s", "s", median(news), len(news))
	put("system.run_s", "s", median(runsT), len(runsT))
	var allocSum float64
	for _, a := range newAllocs {
		allocSum += a
	}
	put("system.new_alloc_mb", "MiB", allocSum/float64(len(newAllocs)), len(newAllocs))

	var busy, tail []float64
	for _, s := range tr.spans {
		if s.Name == "runner.Map" {
			bf, tl := poolStats(s, tr.children(s.ID), b.w.workers)
			busy, tail = append(busy, bf), append(tail, tl)
		}
	}
	if len(busy) == 0 {
		busy, tail = []float64{0}, []float64{0}
	}
	put("runner.busy_frac", "ratio", median(busy), len(busy))
	put("runner.tail_s", "s", median(tail), len(tail))

	counts, err := layerCounts(sumCounters(b.first), refs)
	if err != nil {
		return nil, err
	}
	for k, v := range counts {
		unit := "count"
		switch {
		case strings.HasSuffix(k, "_frac") || strings.HasSuffix(k, "_per_ref") || strings.HasSuffix(k, "_per_txn"):
			unit = "ratio"
		case strings.HasSuffix(k, "_pct"):
			unit = "%"
		case strings.HasSuffix(k, "_cycles"):
			unit = "cycles"
		}
		put(k, unit, v, 1)
	}

	// Module seconds are per traced repetition, so they do not grow when a
	// faster program fits more repetitions into the traced phase.
	n := int(ticks)
	for _, bucket := range append(append([]string{}, cpuModules...), runtimeBuckets...) {
		put("cpu."+bucket, "s", float64(ns[bucket])/1e9/float64(len(traced)), n)
		put("cpu."+bucket+".share", "%", 100*ratio(float64(ns[bucket]), float64(total)), n)
	}
	put("cpu.samples", "count", float64(ticks), n)

	put("workload.gen_ns_per_ref", "ns", genNsPerRef(b.scs), microReps)
	access, err := cacheAccessNs(b.scs)
	if err != nil {
		return nil, err
	}
	put("cache.access_ns", "ns", access, microReps)
	return m, nil
}

// writeReference records the workload's reference digests in the JSON
// file at path, keeping the other workloads' entries.
func writeReference(path string, seed uint64, name string, sims []simCase, digests []string) error {
	if seed != defaultSeed {
		return fmt.Errorf("reference digests are recorded for seed %d only", defaultSeed)
	}
	recorded := map[string]map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recorded); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	entry := map[string]string{}
	for i, s := range sims {
		if digests[i] == "" {
			return fmt.Errorf("%s: reference run failed; nothing recorded", s.label)
		}
		entry[s.label] = digests[i]
	}
	recorded[name] = entry
	out, err := json.MarshalIndent(recorded, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// cpuModel returns the CPU model name on Linux, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
