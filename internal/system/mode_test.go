package system

import (
	"strings"
	"testing"

	"vsnoop/internal/core"
)

// TestModeValidate pins the accepted Mode values and the engine each one
// selects: "" and "adaptive" run the adaptive free-run, "windowed" pins
// the windowed protocol, and the values of the removed optimistic engine
// are rejected with one message naming the default engine.
func TestModeValidate(t *testing.T) {
	cases := []struct {
		mode     string
		windowed bool
		err      string
	}{
		{mode: ""},
		{mode: "adaptive"},
		{mode: "windowed", windowed: true},
		{mode: "timewarp", err: "removed with the optimistic engine; results are identical under the default engine"},
		{mode: "auto", err: "removed with the optimistic engine; results are identical under the default engine"},
		{mode: "bogus", err: "unknown Mode"},
	}
	for _, tc := range cases {
		name := tc.mode
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RefsPerVCPU = 100
			cfg.Shards = 4
			cfg.MigrationPeriodMs = 2
			cfg.Mode = tc.mode
			err := cfg.Validate()
			m, nerr := New(cfg)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Validate() = %v, want an error containing %q", err, tc.err)
				}
				if nerr == nil {
					t.Fatal("New accepted a config Validate rejects")
				}
				return
			}
			if err != nil || nerr != nil {
				t.Fatalf("Validate() = %v, New() = %v", err, nerr)
			}
			if m.sharded == nil {
				t.Fatal("config planned a single domain")
			}
			if m.sharded.Windowed != tc.windowed {
				t.Errorf("Windowed = %v, want %v", m.sharded.Windowed, tc.windowed)
			}
		})
	}
}

// TestLocationTables pins the per-domain vCPU location tables: each
// vCPU is owned by exactly the domain of its current core, that domain's
// fwd entry points at itself, and a run of depart/arrive pairs hands both
// off consistently.
func TestLocationTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 1000
	cfg.MigrationPeriodMs = 0.05
	cfg.Filter.Policy = core.PolicyCounter
	cfg.Shards = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.own == nil || m.nv != len(m.vcpus) {
		t.Fatalf("location tables not built: own=%v nv=%d", m.own != nil, m.nv)
	}
	check := func(when string) {
		t.Helper()
		for i, v := range m.vcpus {
			for _, d := range m.doms {
				owns := m.own[int(d.idx)*m.nv+i]
				if want := d == v.dom; owns != want {
					t.Errorf("%s: dom %d owns vCPU %d = %v, want %v", when, d.idx, i, owns, want)
				}
				if owns && m.fwd[int(d.idx)*m.nv+i] != d.idx {
					t.Errorf("%s: dom %d owns vCPU %d but fwd points to %d", when, d.idx, i, m.fwd[int(d.idx)*m.nv+i])
				}
			}
		}
	}
	check("after New")
	st, err := m.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if st.Relocations == 0 {
		t.Fatal("migration run performed no relocations")
	}
	check("after Run")
}
