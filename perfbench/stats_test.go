package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.5, 5}, {0.1, 1}, {0.11, 2}, {0.99, 10}, {1, 10}, {0, 1}, {-1, 1}, {2, 10},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %v, want 7", got)
	}
	// 1000 samples: p99 is rank 990, leaving exactly ten samples above it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := beyond(999, 0.99); got != 9 {
		t.Errorf("beyond(999, 0.99) = %d, want 9", got)
	}
	if got := beyond(0, 0.5); got != 0 {
		t.Errorf("beyond(0, 0.5) = %d, want 0", got)
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestAbortShareDenominator(t *testing.T) {
	// The denominator is every attempt (committed + aborted), not the
	// commits alone: 1 abort in 4 attempts is 25%, not 33%.
	if got := abortPct(3, 1); got != 25 {
		t.Errorf("abortPct(3, 1) = %v, want 25", got)
	}
	if got := abortPct(0, 5); got != 100 {
		t.Errorf("abortPct(0, 5) = %v, want 100", got)
	}
	if got := abortPct(0, 0); got != 0 {
		t.Errorf("abortPct(0, 0) = %v, want 0", got)
	}
}

func TestPerCommitRatioWithNoCommits(t *testing.T) {
	if got := ratio(1234, 0); got != 0 {
		t.Errorf("ratio(x, 0) = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(10, 4); got != 2.5 {
		t.Errorf("ratio(10, 4) = %v, want 2.5", got)
	}
	if got := pct(1, 0); got != 0 {
		t.Errorf("pct(1, 0) = %v, want 0", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 160}}, 80},
		{"overlapping counted once", []interval{{110, 140}, {130, 150}}, 60},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
		{"clipped to parent", []interval{{50, 110}, {190, 250}}, 80},
		{"outside parent", []interval{{10, 20}, {300, 400}}, 100},
		{"cover all", []interval{{100, 150}, {140, 200}}, 0},
		{"unsorted", []interval{{170, 180}, {110, 120}, {115, 125}}, 75},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
	if got := selfTime(interval{5, 5}, nil); got != 0 {
		t.Errorf("empty parent: selfTime = %d, want 0", got)
	}
}
