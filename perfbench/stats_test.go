package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{39, 50},
		{40, 75},
		{99, 75},
		{100, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d, 10) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n, 10); p > 0 {
			if beyond := float64(c.n) * (100 - p) / 100; beyond < 10-1e-9 {
				t.Errorf("n=%d: p%v leaves %.1f samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := percentile(xs, 75); got != 4 {
		t.Fatalf("p75 = %v, want 4", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Fatalf("p50 of {1,2} = %v, want 1.5", got)
	}
	if xs[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of no samples should be NaN")
	}
}
