package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{1, 2}, 0.9, 1.9},
		{[]float64{7}, 0.9, 7},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// TestRunTailIsPerRepetition checks run_s_p90: the p90 across one
// repetition's simulations, then the median over repetitions, so a few
// stalled repetitions and the number of repetitions do not move it.
func TestRunTailIsPerRepetition(t *testing.T) {
	rep := func(scale float64) repResult {
		r := repResult{wall: scale}
		for i := 1; i <= 11; i++ {
			r.sims = append(r.sims, simResult{run: scale * float64(i)})
		}
		return r
	}
	for _, n := range []int{1, 46, 47, 100} {
		var reps []repResult
		for i := 0; i < n; i++ {
			reps = append(reps, rep(1))
		}
		// A stalled tenth of the repetitions, three times slower.
		for i := 0; i < n/10; i++ {
			reps = append(reps, rep(3))
		}
		got := endToEnd(reps, setupProbe{setup: []float64{1}, heap: []float64{1}})["run_s_p90"].Value
		if math.Abs(got-10) > 1e-12 {
			t.Errorf("%d repetitions: run_s_p90 = %v, want 10", n, got)
		}
	}
}
