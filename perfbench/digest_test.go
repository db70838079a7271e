package main

import (
	"testing"

	"vsnoop"
	"vsnoop/internal/system"
)

// smallConfig is a migrating run short enough for a unit test that still
// exercises relocation, the counter policy and the removal-period CDF.
func smallConfig(seed uint64) vsnoop.Config {
	cfg := vsnoop.DefaultConfig()
	cfg.RefsPerVCPU = 1500
	cfg.WarmupRefs = 300
	cfg.Policy = vsnoop.PolicyCounter
	cfg.MigrationPeriodMs = 0.5
	cfg.Seed = seed
	return cfg
}

func runSplit(t *testing.T, cfg vsnoop.Config) *system.Stats {
	t.Helper()
	sc, err := toSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := runSimTraced(sc, nil, 0)
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.st
}

func TestDigestStable(t *testing.T) {
	cfg := smallConfig(1)
	a, b := runSplit(t, cfg), runSplit(t, cfg)
	da := digest(a)
	if da != digest(a) {
		t.Fatal("digest of the same statistics changed between calls")
	}
	if db := digest(b); da != db {
		t.Fatalf("two runs of one config: digests %s and %s", da, db)
	}
	res, err := vsnoop.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dr := digest(res.Stats); dr != da {
		t.Fatalf("vsnoop.Run digest %s, system.New+RunChecked digest %s: toSystem drifted from vsnoop.Run", dr, da)
	}
	k2 := cfg
	k2.Shards = 2
	if dk := digest(runSplit(t, k2)); dk != da {
		t.Fatalf("Shards=2 digest %s, Shards=0 digest %s", dk, da)
	}
}

func TestDigestCoversCountersButNotSync(t *testing.T) {
	st := runSplit(t, smallConfig(1))
	base := digest(st)
	st.Sync.Windows += 7
	st.Sync.BarrierWaits += 3
	if digest(st) != base {
		t.Error("Sync telemetry changed the digest")
	}
	st.L2Misses++
	if digest(st) == base {
		t.Error("a changed L2Misses left the digest unchanged")
	}
	st.L2Misses--
	st.MissLatency.Observe(1)
	if digest(st) == base {
		t.Error("a changed MissLatency sample left the digest unchanged")
	}
}

func TestDigestSeesSeed(t *testing.T) {
	if digest(runSplit(t, smallConfig(1))) == digest(runSplit(t, smallConfig(2))) {
		t.Error("seeds 1 and 2 gave the same digest")
	}
}

func TestPoolStats(t *testing.T) {
	// Two workers, three jobs: worker A runs 0-4 then 4-6, worker B runs
	// 0-5. The last job starts at 4; B goes idle for good at 5.
	m := span{StartS: 0, EndS: 6}
	jobs := []span{{StartS: 0, EndS: 4}, {StartS: 0, EndS: 5}, {StartS: 4, EndS: 6}}
	busy, tail := poolStats(m, jobs, 2)
	if busy != 11.0/12 || tail != 1 {
		t.Errorf("poolStats = busy %v tail %v, want %v and 1", busy, tail, 11.0/12)
	}
}
