package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// nearestRank is the exact reference the histogram approximates: the
// sample of rank ⌈q·n⌉ in sorted order, clamped to [1, n].
func nearestRank(sorted []uint64, q float64) uint64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

var quantiles = []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// checkAgainstExact records vs and asserts every quantile is within 1%
// of exact nearest-rank, and count/sum/min/max are exact.
func checkAgainstExact(t *testing.T, name string, vs []uint64) {
	t.Helper()
	var h Histogram
	var sum uint64
	for _, v := range vs {
		h.Record(v)
		sum += v
	}
	sorted := append([]uint64(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if h.Count() != uint64(len(vs)) || h.Sum() != sum {
		t.Fatalf("%s: count/sum = %d/%d, want %d/%d", name, h.Count(), h.Sum(), len(vs), sum)
	}
	if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
		t.Fatalf("%s: min/max = %d/%d, want %d/%d", name, h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
	}
	for _, q := range quantiles {
		got, want := h.Quantile(q), nearestRank(sorted, q)
		if err := math.Abs(float64(got)-float64(want)) / math.Max(float64(want), 1); err > 0.01 {
			t.Errorf("%s: q=%v got %d, exact %d (error %.3f%% > 1%%)", name, q, got, want, 100*err)
		}
		if got < h.Min() || got > h.Max() {
			t.Errorf("%s: q=%v got %d outside [min, max] = [%d, %d]", name, q, got, h.Min(), h.Max())
		}
	}
}

func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 50000
	uniform := make([]uint64, n)
	for i := range uniform {
		uniform[i] = uint64(rng.Int63n(500_000_000)) // up to 500 ms in ns
	}
	checkAgainstExact(t, "uniform", uniform)

	heavy := make([]uint64, n)
	for i := range heavy {
		// Pareto tail (α=1.1) from 1 µs: spans many magnitudes.
		heavy[i] = uint64(1000 / math.Pow(1-rng.Float64(), 1/1.1))
	}
	checkAgainstExact(t, "heavy-tailed", heavy)

	constant := make([]uint64, n)
	for i := range constant {
		constant[i] = 123_456_789
	}
	checkAgainstExact(t, "constant", constant)

	wide := []uint64{0, 1, 63, 64, 127, 128, 129, 1 << 20, 1<<40 + 12345, math.MaxUint64}
	checkAgainstExact(t, "magnitude edges", wide)
}

func TestEmptyReturnsZero(t *testing.T) {
	var h Histogram
	for _, q := range quantiles {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram reports %+v", h)
	}
	if h.mags != nil {
		t.Fatal("empty histogram allocated bucket storage")
	}
}

func TestSingleSampleExact(t *testing.T) {
	for _, v := range []uint64{0, 7, 200, 3_000_017, 1 << 50} {
		var h Histogram
		h.Record(v)
		for _, q := range append(quantiles, -1, 2) {
			if got := h.Quantile(q); got != v {
				t.Fatalf("single sample %d: Quantile(%v) = %d", v, q, got)
			}
		}
	}
}

// Values below 128 have width-1 buckets; fresh's version lags live there.
func TestSmallValuesExact(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < 32; v++ {
		h.Record(v)
	}
	for v := uint64(0); v < 32; v++ {
		q := float64(v+1) / 32
		if got := h.Quantile(q); got != v {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, v)
		}
	}
	for v := uint64(0); v < 128; v++ {
		if m, s := index(v); bucketMid(m, s) != v {
			t.Fatalf("value %d maps to bucket (%d,%d) with midpoint %d", v, m, s, bucketMid(m, s))
		}
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, union Histogram
	for i := 0; i < 20000; i++ {
		v := uint64(rng.ExpFloat64() * 1e6)
		if i%3 == 0 {
			a.Record(v)
		} else {
			b.Record(v * 1000)
			v *= 1000
		}
		union.Record(v)
	}
	var merged Histogram
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(&Histogram{}) // merging an empty histogram is a no-op
	if merged.Count() != union.Count() || merged.Sum() != union.Sum() ||
		merged.Min() != union.Min() || merged.Max() != union.Max() {
		t.Fatalf("merged summary %d/%d/%d/%d, union %d/%d/%d/%d",
			merged.Count(), merged.Sum(), merged.Min(), merged.Max(),
			union.Count(), union.Sum(), union.Min(), union.Max())
	}
	for _, q := range quantiles {
		if merged.Quantile(q) != union.Quantile(q) {
			t.Fatalf("q=%v: merged %d, union %d", q, merged.Quantile(q), union.Quantile(q))
		}
	}
}

// Storage grows only with the magnitudes reached, not with sample count.
func TestStorageBoundedByMagnitudes(t *testing.T) {
	var h Histogram
	for i := 0; i < 1_000_000; i++ {
		h.Record(uint64(1_000_000 + i%1000)) // ~1 ms in ns: one magnitude
	}
	chunks := 0
	for _, c := range h.mags {
		if c != nil {
			chunks++
		}
	}
	if chunks != 1 {
		t.Fatalf("%d chunks allocated for one magnitude of samples", chunks)
	}
}

var sink uint64

func BenchmarkHistRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]uint64, 4096)
	for i := range vs {
		vs[i] = uint64(rng.ExpFloat64() * 5e6) // ~5 ms mean, in ns
	}
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vs[i&(len(vs)-1)])
	}
	sink = h.Count()
}

func BenchmarkHistQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	for i := 0; i < 1<<16; i++ {
		h.Record(uint64(rng.ExpFloat64() * 5e6))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = h.Quantile(0.95)
	}
}
