package main

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"vsnoop/internal/system"
)

// counters sums named Stats fields over a repetition's simulations. Fields
// are read by name so that a later change which removes a counter (for
// example Time Warp's rollback count) does not break the benchmark's
// build; layerCounts then fails the traced run instead of reporting 0.
type counters map[string]float64

func sumCounters(sts []*system.Stats) counters {
	c := counters{}
	for _, st := range sts {
		if st == nil {
			continue
		}
		addFields(c, "", reflect.ValueOf(st).Elem())
	}
	return c
}

// addFields adds every unsigned-integer field of v, recursing into the
// Sync struct, under its name prefixed by prefix.
func addFields(c counters, prefix string, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Uint64:
			c[prefix+f.Name] += float64(fv.Uint())
		case reflect.Struct:
			if f.Name == "Sync" {
				addFields(c, "Sync.", fv)
			}
		}
	}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts derives the per-layer count metrics of one repetition. They
// come from the simulated statistics and repeat exactly. A counter name
// that Stats no longer has is an error, not a 0 that would read as a gain.
func layerCounts(c counters, refs float64) (map[string]float64, error) {
	var missing []string
	get := func(name string) float64 {
		v, ok := c[name]
		if !ok && !slices.Contains(missing, name) {
			missing = append(missing, name)
		}
		return v
	}
	out := map[string]float64{
		"sim.events":                  get("EventsFired"),
		"sim.events_per_ref":          ratio(get("EventsFired"), refs),
		"sim.sync.windows":            get("Sync.Windows"),
		"sim.sync.cross_deposits":     get("Sync.CrossDeposits"),
		"sim.sync.barrier_waits":      get("Sync.BarrierWaits"),
		"sim.sync.elided_frac":        ratio(get("Sync.ElidedBarriers"), get("Sync.Windows")),
		"sim.sync.mean_window_cycles": ratio(get("Sync.WindowWidthSum"), get("Sync.Windows")),
		"sim.sync.rollbacks":          get("Sync.Rollbacks"),
		"cache.l1_accesses":           get("L1Accesses"),
		"cache.l2_accesses":           get("L2Accesses"),
		"cache.l2_miss_frac":          ratio(get("L2Misses"), get("L2Accesses")),
		"cache.writebacks":            get("Writebacks"),
		"tlb.misses":                  get("TLBMisses"),
		"tlb.shootdowns":              get("TLBShootdowns"),
		"token.transactions":          get("Transactions"),
		"token.retry_frac":            ratio(get("Retries"), get("Transactions")),
		"token.persistent":            get("Persistent"),
		"core.snoops_per_txn":         ratio(get("SnoopsIssued"), get("Transactions")),
		"core.snoop_lookups":          get("SnoopLookups"),
		"mesh.messages":               get("Messages"),
		"mesh.byte_hops":              get("ByteHops"),
		"memctrl.dram_reads":          get("DRAMReads"),
		"memctrl.dram_writes":         get("DRAMWrites"),
		"mem.cows":                    get("Cows"),
		"mem.content_access_pct":      100 * ratio(get("L1AccessesContent"), get("L1Accesses")),
		"hv.relocations":              get("Relocations"),
		"hv.map_syncs":                get("MapSyncs"),
		"workload.refs":               refs,
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("system.Stats has no counter %s", strings.Join(missing, ", "))
	}
	return out, nil
}
