package main

import "testing"

func TestModuleOf(t *testing.T) {
	cases := []struct {
		fn, module string
		ok         bool
	}{
		{"vsnoop/internal/cache.(*Cache).Lookup", "cache", true},
		{"vsnoop/internal/sim.(*ShardedEngine).runAdaptive.func2", "sim", true},
		{"vsnoop/internal/lint/ir.Build", "lint", true},
		{"vsnoop/internal/runner.Map[go.shape.struct { vsnoop/internal/system.st *vsnoop/internal/system.Stats }]", "runner", true},
		{"vsnoop.Run", "vsnoop", true},
		{"vsnoop/cmd/vsnoop-sim.main", "cmd", true},
		{"runtime.mallocgc", "", false},
		{"main.runSim", "", false},
		{"vsnoopish/x.F", "", false},
		{"internal/runtime/maps.h2", "", false},
	}
	for _, c := range cases {
		m, ok := moduleOf(c.fn)
		if m != c.module || ok != c.ok {
			t.Errorf("moduleOf(%q) = %q, %v; want %q, %v", c.fn, m, ok, c.module, c.ok)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{"gc beats sched", []string{"runtime.lock2", "runtime.gcStart", "runtime.schedule"}, "runtime.gc"},
		{"gosched wait", []string{"runtime.lock2", "runtime.schedule", "runtime.goschedImpl", "runtime.gosched_m", "runtime.mcall"}, "runtime.sched"},
		{"runtime other", []string{"runtime.futex", "runtime.sigprof"}, "runtime.other"},
		{"benchmark main", []string{"time.Now", "main.runSim"}, "runtime.other"},
		{"empty stack", nil, "runtime.other"},
		{"nested vsnoop: innermost wins", []string{
			"vsnoop/internal/cache.(*Cache).Lookup",
			"vsnoop/internal/token.(*CacheCtrl).onRequest",
			"vsnoop/internal/sim.(*Engine).Step",
			"vsnoop/internal/system.(*Machine).RunChecked",
		}, "cache"},
		{"mixed: runtime under vsnoop", []string{
			"runtime.memmove", "runtime.growslice",
			"vsnoop/internal/mesh.(*Network).transmit",
			"vsnoop/internal/sim.(*Engine).Step",
		}, "mesh"},
		{"mixed: allocation in setup", []string{
			"runtime.mallocgc", "runtime.makeslice",
			"vsnoop/internal/cache.New",
			"vsnoop/internal/system.New",
			"main.runSim",
		}, "cache"},
		{"vsnoop module outside the list", []string{"vsnoop/internal/check.(*Checker).Sweep", "vsnoop/internal/system.(*Machine).RunChecked"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("%s: bucketOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// tracesText is `go tool pprof -traces -sample_index=samples` output for
// five samples: an inlined cache frame under the event loop, a GC worker,
// a labelled Gosched wait, allocation under a mesh frame, and a
// runtime-only stack.
const tracesText = `File: perfbench
Type: samples
Time: 2026-01-01 00:00:00 UTC
Duration: 1s, Total samples = 15
-----------+-------------------------------------------------------
         3   vsnoop/internal/cache.(*Cache).setIndex (inline)
             vsnoop/internal/cache.(*Cache).Lookup
             vsnoop/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
         2   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     phase:  shard-adaptive
         4   runtime.lock2
             runtime.schedule
             runtime.goschedImpl
             runtime.mcall
-----------+-------------------------------------------------------
         1   runtime.mallocgc
             vsnoop/internal/mesh.(*Network).transmit
             main.forEach[go.shape.struct { main.st *vsnoop/internal/system.Stats; main.err error }]
-----------+-------------------------------------------------------
         5   runtime.futex
             runtime.sigprof
-----------+-------------------------------------------------------
`

func TestParseAndAttributeTraces(t *testing.T) {
	samples, err := parseTraces(tracesText)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5", len(samples))
	}
	if f := samples[0].frames; len(f) != 3 || f[0] != "vsnoop/internal/cache.(*Cache).setIndex" {
		t.Fatalf("frames = %q, want setIndex innermost without its inline mark", f)
	}
	if f := samples[2].frames; len(f) != 4 || f[0] != "runtime.lock2" {
		t.Fatalf("frames = %q, want the label skipped", f)
	}
	if f := samples[3].frames; len(f) != 3 || f[2] != "main.forEach[go.shape.struct { main.st *vsnoop/internal/system.Stats; main.err error }]" {
		t.Fatalf("frames = %q, want the generic frame whole", f)
	}
	ns, total, ticks := attribute(samples)
	want := map[string]int64{"cache": 30e6, "runtime.gc": 20e6, "runtime.sched": 40e6, "mesh": 10e6, "runtime.other": 50e6}
	for b, v := range ns {
		if v != want[b] {
			t.Errorf("bucket %s = %d ns, want %d", b, v, want[b])
		}
	}
	if total != 150e6 || ticks != 15 {
		t.Errorf("total = %d ns over %d ticks, want 150e6 over 15", total, ticks)
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	if sum != total {
		t.Errorf("buckets cover %d of %d ns", sum, total)
	}
	if len(ns) != len(cpuModules)+len(runtimeBuckets) {
		t.Errorf("attribute reports %d buckets, want every one of %d", len(ns), len(cpuModules)+len(runtimeBuckets))
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	for _, text := range []string{"not a profile", "-----------+----\n   x   runtime.main\n"} {
		if _, err := parseTraces(text); err == nil {
			t.Errorf("parseTraces accepted %q", text)
		}
	}
}
