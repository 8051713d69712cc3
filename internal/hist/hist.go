// Package hist is the repository's one latency distribution: a
// log-linear histogram over uint64 values (nanoseconds, microseconds or
// version counts — the package is unit-agnostic) with bounded relative
// error, exact count, sum, min and max, and Merge.
//
// Layout: values below 64 each get their own bucket. Above that, every
// power-of-two range [64·2^(m-1), 64·2^m) — magnitude m — is split into
// 64 equal sub-buckets of width 2^(m-1). A bucket's width is therefore
// at most 1/64 of its lower edge, and a quantile reported as the bucket's
// midpoint is within 1/128 (< 0.8%) of the true sample. Values below 128
// land in width-1 buckets and come back exactly.
//
// Storage is one 64-counter chunk per magnitude, allocated on the first
// sample that reaches it: an unused Histogram allocates nothing, and a
// run whose latencies span microseconds to seconds holds about twenty
// 512-byte chunks however many samples it records.
//
// A Histogram is not safe for concurrent use; callers serialize access
// (the metrics collector and the freshness tracker record under their
// own mutexes).
package hist

import (
	"math"
	"math/bits"
)

const (
	subBits    = 6
	subBuckets = 1 << subBits // sub-buckets per magnitude
	// numMags covers every uint64: magnitude m holds values of bit length
	// m+subBits (m ≥ 1), and bit length 64 is magnitude 58.
	numMags = 64 - subBits + 1
)

// Histogram accumulates a distribution of uint64 samples. The zero value
// is an empty histogram ready to use.
type Histogram struct {
	count    uint64
	sum      uint64
	min, max uint64
	// mags[m] holds magnitude m's sub-bucket counts, nil until a sample
	// reaches it; the slice grows to the largest magnitude seen.
	mags []*[subBuckets]uint64
}

// index maps v to its magnitude and sub-bucket.
func index(v uint64) (m, s int) {
	if v < subBuckets {
		return 0, int(v)
	}
	m = bits.Len64(v) - subBits
	return m, int(v>>(m-1)) - subBuckets
}

// bucketMid returns the representative value of bucket (m, s): the
// midpoint of its range, which is the value itself for width-1 buckets.
func bucketMid(m, s int) uint64 {
	if m == 0 {
		return uint64(s)
	}
	width := uint64(1) << (m - 1)
	return uint64(subBuckets+s)<<(m-1) + width/2
}

// chunk returns magnitude m's counters, allocating them on first use.
func (h *Histogram) chunk(m int) *[subBuckets]uint64 {
	if m >= len(h.mags) {
		h.mags = append(h.mags, make([]*[subBuckets]uint64, m+1-len(h.mags))...)
	}
	c := h.mags[m]
	if c == nil {
		c = new([subBuckets]uint64)
		h.mags[m] = c
	}
	return c
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	m, s := index(v)
	h.chunk(m)[s]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Merge folds o's samples into h, as if every sample recorded into o had
// been recorded into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for m, oc := range o.mags {
		if oc == nil {
			continue
		}
		c := h.chunk(m)
		for s, n := range oc {
			c[s] += n
		}
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of the samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest sample, 0 when empty.
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest sample, 0 when empty.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the exact arithmetic mean, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the nearest-rank q-quantile: the sample of rank
// ⌈q·count⌉. An empty histogram returns 0. The lowest and highest ranks
// return the exact min and max (so q ≤ 0, q ≥ 1 and a single sample are
// exact); any other rank returns its bucket's midpoint clamped to
// [min, max], within 1/128 of the true sample.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if q <= 0 || rank <= 1 {
		return h.min
	}
	if rank >= h.count {
		return h.max
	}
	var cum uint64
	for m, c := range h.mags {
		if c == nil {
			continue
		}
		for s, n := range c {
			cum += n
			if cum >= rank {
				return min(max(bucketMid(m, s), h.min), h.max)
			}
		}
	}
	return h.max
}
