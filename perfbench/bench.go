package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"vsnoop"
	"vsnoop/internal/runner"
	"vsnoop/internal/system"
)

// simResult is one simulation of a repetition: its statistics, digested
// once the repetition's clock has stopped, and its host seconds.
type simResult struct {
	st  *system.Stats
	err error
	run float64
}

// repResult is one repetition of a workload.
type repResult struct {
	wall    float64
	alloc   uint64 // heap bytes allocated
	mallocs uint64
	gcs     uint32
	sims    []simResult
}

// bench runs one workload and keeps the correctness tally.
type bench struct {
	w   *spec
	scs []system.Config // toSystem of each sim
	// want holds the digest every run of sim i must reproduce: that of
	// its vsnoop.Run reference run.
	want      []string
	attempted int
	failed    int
	// first keeps the statistics of the first repetition for the layer
	// counts, which repeat exactly.
	first []*system.Stats
}

func newBench(w *spec) (*bench, error) {
	b := &bench{w: w}
	for _, s := range w.sims {
		sc, err := toSystem(s.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.label, err)
		}
		b.scs = append(b.scs, sc)
	}
	return b, nil
}

// fail records a failed simulation with its reason on standard error.
func (b *bench) fail(label string, format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: %s\n", b.w.name, label, fmt.Sprintf(format, args...))
}

// forEach runs fn over the workload's sims: through runner.Map when the
// workload has workers, serially otherwise.
func forEach[T any](w *spec, fn func(i int) T) []T {
	if w.workers > 0 {
		return runner.Map(w.workers, len(w.sims), fn)
	}
	out := make([]T, len(w.sims))
	for i := range out {
		out[i] = fn(i)
	}
	return out
}

// reference runs every sim once through vsnoop.Run, at the workload's
// reference shard count, and records the digests the timed repetitions
// must reproduce. It returns the wall time of the whole pass.
func (b *bench) reference() float64 {
	type ref struct {
		digest string
		err    error
	}
	t0 := time.Now()
	refs := forEach(b.w, func(i int) ref {
		cfg := b.w.sims[i].cfg
		if b.w.refShards >= 0 {
			cfg.Shards = b.w.refShards
		}
		res, err := vsnoop.Run(cfg)
		if err != nil {
			return ref{err: err}
		}
		return ref{digest: digest(res.Stats)}
	})
	wall := time.Since(t0).Seconds()
	b.want = make([]string, len(refs))
	for i, r := range refs {
		b.attempted++
		if r.err != nil {
			b.fail(b.w.sims[i].label, "reference run: %v", r.err)
			continue
		}
		b.want[i] = r.digest
	}
	return wall
}

// checkRecorded compares the reference digests with those recorded for
// the default seed.
func (b *bench) checkRecorded(recorded map[string]string) {
	for i, s := range b.w.sims {
		switch rec, ok := recorded[s.label]; {
		case !ok:
			b.fail(s.label, "no reference digest recorded")
		case b.want[i] != "" && b.want[i] != rec:
			b.fail(s.label, "digest %s, recorded %s", b.want[i], rec)
		}
	}
}

// heapRounds is how many of the setup probe's rounds also measure the
// heap a built machine holds; it repeats exactly.
const heapRounds = 11

// setupProbe is what probeSetup measured: per sim, the median live heap a
// built machine holds and the median bytes system.New allocated (MiB);
// per round, the mean system.New time over the sims (s).
type setupProbe struct {
	heap, alloc []float64
	setup       []float64
}

// probeSetup builds each sim's machine w.setupRounds times, each time
// after a forced GC so that collector work left by earlier builds does not
// land in the measurement. The first heapRounds rounds also collect once
// more after the build to weigh the machine's live heap.
func (b *bench) probeSetup() (setupProbe, error) {
	var p setupProbe
	var ms runtime.MemStats
	heaps := make([][]float64, len(b.scs))
	allocs := make([][]float64, len(b.scs))
	for r := 0; r < max(b.w.setupRounds, heapRounds); r++ {
		var setup float64
		for i, sc := range b.scs {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			h0, a0 := ms.HeapAlloc, ms.TotalAlloc
			t0 := time.Now()
			m, err := system.New(sc)
			setup += time.Since(t0).Seconds()
			if err != nil {
				return p, fmt.Errorf("%s: system.New: %w", b.w.sims[i].label, err)
			}
			if r >= heapRounds {
				continue
			}
			runtime.ReadMemStats(&ms)
			a1 := ms.TotalAlloc
			runtime.GC()
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(m)
			heaps[i] = append(heaps[i], (float64(ms.HeapAlloc)-float64(h0))/mib)
			allocs[i] = append(allocs[i], float64(a1-a0)/mib)
		}
		p.setup = append(p.setup, setup/float64(len(b.scs)))
	}
	for i := range b.scs {
		p.heap = append(p.heap, median(heaps[i]))
		p.alloc = append(p.alloc, median(allocs[i]))
	}
	return p, nil
}

const mib = 1 << 20

// runSim runs one simulation through the public entry point and times
// it: what a user of vsnoop.Run waits for.
func runSim(cfg vsnoop.Config) simResult {
	t0 := time.Now()
	res, err := vsnoop.Run(cfg)
	r := simResult{err: err, run: time.Since(t0).Seconds()}
	if err == nil {
		r.st = res.Stats
	}
	return r
}

// runSimTraced builds and runs one simulation in two calls into the
// system layer, each inside a span, so that setup and run loop are timed
// apart.
func runSimTraced(sc system.Config, tr *tracer, parent int) simResult {
	var r simResult
	job := tr.begin("sim", parent)
	t0 := time.Now()
	sp := tr.begin("system.New", job)
	m, err := system.New(sc)
	tr.end(sp)
	if err == nil {
		sp = tr.begin("system.RunChecked", job)
		r.st, err = m.RunChecked()
		tr.end(sp)
	}
	r.run = time.Since(t0).Seconds()
	tr.end(job)
	r.err = err
	return r
}

// rep runs one repetition of the workload and checks every simulation's
// statistics against the reference digests. Untraced repetitions (tr ==
// nil) call vsnoop.Run; traced ones take the split path with spans.
func (b *bench) rep(tr *tracer) repResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := tr.begin("rep", 0)
	t0 := time.Now()
	var sims []simResult
	switch {
	case tr == nil:
		sims = forEach(b.w, func(i int) simResult { return runSim(b.w.sims[i].cfg) })
	case b.w.workers > 0:
		sp := tr.begin("runner.Map", root)
		sims = forEach(b.w, func(i int) simResult { return runSimTraced(b.scs[i], tr, sp) })
		tr.end(sp)
	default:
		sims = forEach(b.w, func(i int) simResult { return runSimTraced(b.scs[i], tr, root) })
	}
	wall := time.Since(t0).Seconds()
	tr.end(root)
	runtime.ReadMemStats(&m1)
	r := repResult{wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc,
		mallocs: m1.Mallocs - m0.Mallocs, gcs: m1.NumGC - m0.NumGC, sims: sims}
	keep := b.first == nil
	for i, s := range sims {
		b.attempted++
		switch {
		case s.err != nil:
			b.fail(b.w.sims[i].label, "run: %v", s.err)
		case b.want[i] == "":
			b.fail(b.w.sims[i].label, "no reference digest to check against")
		case digest(s.st) != b.want[i]:
			b.fail(b.w.sims[i].label, "digest %s, reference %s", digest(s.st), b.want[i])
		}
		if keep {
			b.first = append(b.first, s.st)
		}
		r.sims[i].st = nil
	}
	return r
}

// measure repeats the workload until budget has elapsed, at least once.
// A forced GC before each repetition, outside its clock, makes every
// repetition start from the same heap.
func (b *bench) measure(budget time.Duration, tr *tracer) []repResult {
	var reps []repResult
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < budget {
		runtime.GC()
		reps = append(reps, b.rep(tr))
	}
	return reps
}
