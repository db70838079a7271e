package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuModules are the repository modules CPU time is attributed to. A
// vsnoop frame in any other package counts as "other"; a sample with no
// vsnoop frame goes to one of the runtime buckets.
var cpuModules = []string{
	"system", "runner", "sim", "cache", "tlb", "token", "core", "mesh",
	"memctrl", "mem", "hv", "workload", "partition", "other",
}

// runtimeBuckets receive the samples that have no vsnoop frame.
var runtimeBuckets = []string{"runtime.gc", "runtime.sched", "runtime.other"}

// Function-name prefixes that mark a vsnoop-free stack as garbage
// collection or scheduler work. GC is tested first: a GC worker parks
// through the scheduler, not the other way round.
var (
	gcPrefixes = []string{
		"runtime.gc", "runtime.GC", "runtime._GC", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
		"runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
		"runtime.sweepone", "runtime.(*gcWork)", "runtime.(*mspan).sweep",
		"runtime.(*sweepLocked)", "runtime.(*scavengerState)", "runtime.wbBufFlush",
	}
	schedPrefixes = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gosched_m", "runtime.goschedImpl", "runtime.Gosched",
		"runtime.mcall", "runtime.mstart", "runtime.stopm", "runtime.startm",
		"runtime.wakep", "runtime.handoffp", "runtime.exitsyscall",
		"runtime.entersyscall", "runtime.goexit0", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.runqsteal",
		"runtime.runqgrab", "runtime.notesleep", "runtime.notewakeup",
		"runtime.sysmon", "runtime.netpoll", "runtime.checkTimers",
	}
)

// stackSample is one CPU-profile sample: its frames innermost first
// (inlined frames before their callers), how many profiling ticks landed
// on that stack and the CPU time they stand for.
type stackSample struct {
	frames []string
	count  int64
	ns     int64
}

// moduleOf returns the repository module a function belongs to, or ok ==
// false when the function is outside the vsnoop module tree. Modules are
// named by the package directory under internal/ ("cache", "sim", ...).
func moduleOf(fn string) (module string, ok bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments hold other paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	if pkg == "vsnoop" {
		return "vsnoop", true
	}
	rest, found := strings.CutPrefix(pkg, "vsnoop/")
	if !found {
		return "", false
	}
	rest = strings.TrimPrefix(rest, "internal/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// bucketOf attributes a stack: to the module of its innermost vsnoop
// frame, else to runtime.gc, runtime.sched or runtime.other.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if m, ok := moduleOf(f); ok {
			for _, known := range cpuModules {
				if m == known {
					return m
				}
			}
			return "other"
		}
	}
	if anyPrefix(frames, gcPrefixes) {
		return "runtime.gc"
	}
	if anyPrefix(frames, schedPrefixes) {
		return "runtime.sched"
	}
	return "runtime.other"
}

func anyPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// attribute sums sample CPU time per bucket. Every bucket of cpuModules
// and runtimeBuckets is present, so the shares always cover all samples.
func attribute(samples []stackSample) (ns map[string]int64, total, ticks int64) {
	ns = make(map[string]int64, len(cpuModules)+len(runtimeBuckets))
	for _, b := range cpuModules {
		ns[b] = 0
	}
	for _, b := range runtimeBuckets {
		ns[b] = 0
	}
	for _, s := range samples {
		ns[bucketOf(s.frames)] += s.ns
		total += s.ns
		ticks += s.count
	}
	return ns, total, ticks
}

// cpuTickNs is the CPU time one profile sample stands for: runtime/pprof
// samples at a fixed 100 Hz.
const cpuTickNs = 1e9 / 100

// readProfile reads the CPU profile at path as stack samples through
// `go tool pprof -traces`, the same Go toolchain that built the benchmark.
func readProfile(path string) ([]stackSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces parses the text of `go tool pprof -traces
// -sample_index=samples`: a header, then one block per sample, each opened
// by a dashed separator line (the output ends with one too). A block's
// label lines come first; its first frame line starts with the sample's
// tick count; the frames run innermost first, and an inlined
// frame is marked "(inline)" and listed before its caller.
func parseTraces(text string) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	inBlock := false
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			cur, inBlock = nil, true
			continue
		case !inBlock || line == "":
			continue // header, or the end of the output
		case cur == nil && strings.HasSuffix(strings.Fields(line)[0], ":"):
			continue // a pprof label ("phase:  shard-adaptive")
		case cur == nil:
			count, fn, ok := strings.Cut(line, " ")
			n, err := strconv.ParseInt(count, 10, 64)
			if !ok || err != nil {
				return nil, fmt.Errorf("pprof traces: no sample count in %q", line)
			}
			out = append(out, stackSample{count: n, ns: n * cpuTickNs})
			cur = &out[len(out)-1]
			line = strings.TrimSpace(fn)
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(line, " (inline)"))
	}
	if len(out) == 0 {
		return nil, errors.New("pprof traces: no samples")
	}
	return out, nil
}
