package main

import (
	"math"
	"testing"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 54, 100, 343, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // n..1, unsorted input
		}
		s := summarize(xs)
		above := 0
		for _, x := range xs {
			if x > s.Tail {
				above++
			}
		}
		if above != minBeyond {
			t.Errorf("n=%d: %d samples above the tail %g, want %d", n, above, s.Tail, minBeyond)
		}
		if want := 100 * float64(n-minBeyond) / float64(n); math.Abs(s.TailPct-want) > 1e-9 {
			t.Errorf("n=%d: tail percentile %g, want %g", n, s.TailPct, want)
		}
		if s.N != n {
			t.Errorf("n=%d: summary counts %d samples", n, s.N)
		}
	}
	s := summarize([]float64{4, 1, 3, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	if s.P50 != 10.5 || s.Tail != 10 || s.TailPct != 50 {
		t.Errorf("n=20 summary = %+v, want p50 10.5 and the p50 tail 10", s)
	}
	if few := summarize([]float64{3, 1, 2}); few.TailPct != 100 || few.Tail != 3 {
		t.Errorf("short sample summary = %+v, want the maximum as p100", few)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestGrindNSUnits(t *testing.T) {
	// 0.3 s for 131072 cells × 3 RHS evaluations is 762.939... ns per
	// cell per evaluation.
	got := grindNS(0.3, 131072, 3)
	if want := 0.3e9 / (131072 * 3); math.Abs(got-want) > 1e-9 {
		t.Errorf("grindNS = %g, want %g", got, want)
	}
	// One cell, one evaluation, one microsecond: 1000 ns.
	if got := grindNS(1e-6, 1, 1); math.Abs(got-1000) > 1e-9 {
		t.Errorf("grindNS(1µs, 1, 1) = %g, want 1000", got)
	}
}
