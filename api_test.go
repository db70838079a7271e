package vsnoop

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// defaultHash is the pinned canonical hash of DefaultConfig. A literal
// digest in the repo is the cross-process stability contract: every
// process, machine, and Go version must encode the default config to
// exactly these bytes. If a Config change legitimately alters the
// encoding, bump the version string in Hash and re-pin.
const defaultHash = "d514039b01ff21ccc57bc7f73e401b559c1ae74582e51592d8bdb5499cdba4bc"

func TestHashDefaultPinned(t *testing.T) {
	if h := DefaultConfig().Hash(); h != defaultHash {
		t.Fatalf("DefaultConfig().Hash() = %s, want %s", h, defaultHash)
	}
}

// TestHashIgnoresExecutionMechanics: Shards, NoElision, and Mode pick
// goroutine counts and synchronization engines proven bit-identical, so
// they must not change the memoization key.
func TestHashIgnoresExecutionMechanics(t *testing.T) {
	cfg := DefaultConfig()
	base := cfg.Hash()
	cfg.Shards = 4
	cfg.NoElision = true
	for _, mode := range []string{"adaptive", "windowed"} {
		cfg.Mode = mode
		if h := cfg.Hash(); h != base {
			t.Fatalf("Shards/NoElision/Mode=%s changed the hash: %s vs %s", mode, h, base)
		}
	}
}

// TestHashDistinguishesSemanticFields flips every semantic field one at a
// time and requires a distinct hash each time (including nil vs zero-valued
// fault plan, and Workload vs the equivalent-length WorkloadPerVM).
func TestHashDistinguishesSemanticFields(t *testing.T) {
	muts := map[string]func(*Config){
		"cores":       func(c *Config) { c.Cores = 32 },
		"vms":         func(c *Config) { c.VMs = 2 },
		"vcpus":       func(c *Config) { c.VCPUsPerVM = 8 },
		"workload":    func(c *Config) { c.Workload = "ocean" },
		"perVM":       func(c *Config) { c.WorkloadPerVM = []string{"fft"} },
		"policy":      func(c *Config) { c.Policy = PolicyCounter },
		"content":     func(c *Config) { c.Content = ContentIntraVM },
		"threshold":   func(c *Config) { c.Threshold = 11 },
		"refs":        func(c *Config) { c.RefsPerVCPU = 100 },
		"warmup":      func(c *Config) { c.WarmupRefs = 1 },
		"migration":   func(c *Config) { c.MigrationPeriodMs = 2.5 },
		"cyclesPerMs": func(c *Config) { c.CyclesPerMs = 1000 },
		"sharing":     func(c *Config) { c.ContentSharing = true },
		"hypervisor":  func(c *Config) { c.Hypervisor = true },
		"checks":      func(c *Config) { c.Checks = true },
		"maxSteps":    func(c *Config) { c.MaxSteps = 1 },
		"seed":        func(c *Config) { c.Seed = 2 },
		"fault":       func(c *Config) { c.Fault = &FaultPlan{} },
		"faultSeed":   func(c *Config) { c.Fault = &FaultPlan{Seed: 1} },
		"faultEvent": func(c *Config) {
			c.Fault = &FaultPlan{Events: []FaultEvent{{AtCycle: 1, Kind: FaultCorruptMap}}}
		},
	}
	seen := map[string]string{DefaultConfig().Hash(): "default"}
	names := make([]string, 0, len(muts))
	for name := range muts {
		names = append(names, name)
	}
	// Deterministic order for failure messages (map iteration is fine in
	// tests; sorting keeps reruns stable).
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		cfg := DefaultConfig()
		muts[name](&cfg)
		h := cfg.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q collides with %q: %s", name, prev, h)
		}
		seen[h] = name
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Workload = "no-such-workload"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown workload passed Validate")
	}
	over := DefaultConfig()
	over.VMs = 8 // 32 vCPUs on 16 cores
	if err := over.Validate(); err == nil {
		t.Fatal("overcommitted config passed Validate")
	}
}

// TestRunCtxCompletes: a background context changes nothing — the Result is
// deeply equal to Run's, Stats included.
func TestRunCtxCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 1500
	cfg.WarmupRefs = 200
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxRes, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ctxRes) {
		t.Fatal("RunCtx result differs from Run result")
	}
	// A cancelable context that never fires must not change the result
	// either (this path attaches a real Canceler to the engines).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed, err := RunCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, armed) {
		t.Fatal("RunCtx with un-fired cancelable context differs from Run")
	}
}

// TestRunCtxCanceled cancels mid-run from another goroutine and requires a
// prompt error that errors.Is-matches context.Canceled, with no Result.
func TestRunCtxCanceled(t *testing.T) {
	cfg := DefaultConfig() // 20k refs/vCPU: far longer than the cancel latency
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	res, err := RunCtx(ctx, cfg)
	if res != nil {
		t.Fatal("canceled run returned a partial Result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxDeadline: an already-expired deadline refuses to start and
// reports DeadlineExceeded.
func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	res, err := RunCtx(ctx, DefaultConfig())
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("res=%v err=%v, want nil + DeadlineExceeded", res, err)
	}
}

// TestRunCtxShardedCanceled covers the shard-parallel cancel path: a
// shardable config at Shards=4, canceled from another goroutine.
func TestRunCtxShardedCanceled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	res, err := RunCtx(ctx, cfg)
	if res != nil {
		t.Fatal("canceled sharded run returned a partial Result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
