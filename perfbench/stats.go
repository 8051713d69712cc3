package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile of sorted (ascending):
// the smallest sample with at least p of the samples at or below it. An
// empty slice yields 0; p is clamped to (0, 1].
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// beyond returns how many samples lie strictly above the nearest-rank
// p-quantile's position: a reported tail needs at least ten of them.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return n - 1 - idx
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (nearest-rank).
func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// ratio divides num by den, and is 0 when den is 0: a per-commit cost of
// a run that committed nothing is undefined, and such a run fails the
// correctness gate before any ratio is reported.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pct is part as a percentage of whole (0 when whole is 0).
func pct(part, whole float64) float64 { return 100 * ratio(part, whole) }

// abortPct is the failure share the paper reports: aborted attempts over
// all attempts, where every attempt either committed or aborted.
func abortPct(committed, aborted uint64) float64 {
	return pct(float64(aborted), float64(committed+aborted))
}

// interval is a closed-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent not covered by any child: the
// parent's duration minus the measure of the union of its children,
// each clipped to the parent. Children may overlap each other (parallel
// 2PC votes, say); overlapping time is subtracted once.
func selfTime(parent interval, children []interval) int64 {
	if parent.end <= parent.start {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	curS, curE := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		if open && c.start <= curE {
			curE = max(curE, c.end)
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = c.start, c.end, true
	}
	if open {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}
