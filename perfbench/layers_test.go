package main

import (
	"strings"
	"testing"

	"vsnoop/internal/system"
)

func TestLayerCountsReadEveryCounter(t *testing.T) {
	st := runSplit(t, smallConfig(1))
	counts, err := layerCounts(sumCounters([]*system.Stats{st}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if counts["sim.events"] != float64(st.EventsFired) || counts["tlb.shootdowns"] != float64(st.TLBShootdowns) {
		t.Errorf("sim.events %v, tlb.shootdowns %v; want %d and %d",
			counts["sim.events"], counts["tlb.shootdowns"], st.EventsFired, st.TLBShootdowns)
	}
}

func TestLayerCountsFailOnMissingCounter(t *testing.T) {
	c := sumCounters([]*system.Stats{runSplit(t, smallConfig(1))})
	delete(c, "TLBShootdowns")
	delete(c, "Transactions")
	_, err := layerCounts(c, 1)
	if err == nil {
		t.Fatal("a missing counter read as 0")
	}
	if msg := err.Error(); !strings.Contains(msg, "TLBShootdowns") || strings.Count(msg, "Transactions") != 1 {
		t.Errorf("error %q: want each missing name once", msg)
	}
}
