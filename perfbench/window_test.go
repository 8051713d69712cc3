package main

import (
	"testing"
	"time"
)

func TestSlicingIsOdd(t *testing.T) {
	cases := []struct {
		d    time.Duration
		n    int
		each time.Duration
	}{
		{20 * time.Second, 5, 4 * time.Second},
		{10 * time.Second, 1, 10 * time.Second},
		{12 * time.Second, 3, 4 * time.Second},
		{time.Second, 1, time.Second},
	}
	for _, c := range cases {
		n, l := slicing(c.d)
		if n != c.n || l != c.each {
			t.Errorf("slicing(%v) = %d × %v, want %d × %v", c.d, n, l, c.n, c.each)
		}
	}
}

func TestCutSlices(t *testing.T) {
	s := time.Second
	attempts := []attempt{
		{end: 0, ms: 1, update: false},
		{end: s / 2, ms: 3, update: true, aborted: true},
		{end: s, ms: 2, update: false},       // second slice: edges belong to the later slice
		{end: 2*s + 1, ms: 9, update: false}, // after the window: left out
		{end: s + s/2, ms: 4, aborted: true},
		{end: s / 4, ms: 0.5},
	}
	cpu := []time.Duration{10, 30, 100}
	got := cutSlices(attempts, 2, s, cpu)
	if len(got) != 2 {
		t.Fatalf("got %d slices", len(got))
	}
	if got[0].commits != 2 || got[0].aborts != 1 || got[1].commits != 1 || got[1].aborts != 1 {
		t.Errorf("commits/aborts per slice = %d/%d, %d/%d; want 2/1, 1/1",
			got[0].commits, got[0].aborts, got[1].commits, got[1].aborts)
	}
	if got[0].cpu != 20 || got[1].cpu != 70 || got[0].secs != 1 {
		t.Errorf("cpu per slice = %v, %v (secs %v); want 20, 70 (1)", got[0].cpu, got[1].cpu, got[0].secs)
	}
	if m := medianOver(got, func(s slice) float64 { return float64(s.cpu) }); m != 20 {
		t.Errorf("medianOver = %v, want 20", m)
	}
	// No CPU marks (a traced run): slices carry no CPU time.
	if got := cutSlices(attempts, 2, s, nil); got[0].cpu != 0 {
		t.Errorf("cpu without marks = %v", got[0].cpu)
	}
}

func TestResponseTimesFilterCommitted(t *testing.T) {
	attempts := []attempt{
		{ms: 5, update: true},
		{ms: 50, update: true, aborted: true},
		{ms: 1, update: true},
		{ms: 2},
	}
	if got := responseTimes(attempts, true, true); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("committed updates = %v, want [1 5]", got)
	}
	if got := responseTimes(attempts, true, false); len(got) != 3 || got[2] != 50 {
		t.Errorf("all updates = %v, want [1 5 50]", got)
	}
	if got := responseTimes(attempts, false, false); len(got) != 1 || got[0] != 2 {
		t.Errorf("reads = %v, want [2]", got)
	}
}
