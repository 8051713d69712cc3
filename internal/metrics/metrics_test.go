package metrics

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/hist"
)

// within1pct reports whether got is within 1% of want, the error bound
// of every percentile the collector reports.
func within1pct(got, want time.Duration) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d*100 <= want
}

func TestThroughputAndAbortRate(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	for i := 0; i < 30; i++ {
		c.TxnCommitted(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		c.TxnAborted()
	}
	time.Sleep(20 * time.Millisecond)
	c.End()
	r := c.Snapshot(3)
	if r.Committed != 30 || r.Aborted != 10 {
		t.Errorf("counts = %d/%d", r.Committed, r.Aborted)
	}
	if r.AbortRate != 25 {
		t.Errorf("abort rate = %v, want 25%%", r.AbortRate)
	}
	wantTPS := float64(30) / r.Elapsed.Seconds() / 3
	if diff := r.ThroughputPerSite - wantTPS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("throughput = %v, want %v", r.ThroughputPerSite, wantTPS)
	}
}

func TestResponseStats(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	for i := 1; i <= 100; i++ {
		c.TxnCommitted(time.Duration(i) * time.Millisecond)
	}
	r := c.Snapshot(1)
	if r.MeanResponse != 50500*time.Microsecond {
		t.Errorf("mean = %v", r.MeanResponse)
	}
	if !within1pct(r.P50Response, 50*time.Millisecond) {
		t.Errorf("p50 = %v, want 50ms ±1%%", r.P50Response)
	}
	if !within1pct(r.P95Response, 95*time.Millisecond) {
		t.Errorf("p95 = %v, want 95ms ±1%%", r.P95Response)
	}
	if r.MaxResponse != 100*time.Millisecond {
		t.Errorf("max = %v", r.MaxResponse)
	}
}

func TestPropagationDelay(t *testing.T) {
	c := NewCollector(true)
	c.Begin()
	committed := time.Now()
	c.TxnCommitted(time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	c.SecondaryApplied(committed)
	c.SecondaryApplied(time.Time{}) // unstamped update: no sample
	r := c.Snapshot(1)
	if r.Secondaries != 2 {
		t.Errorf("secondaries = %d", r.Secondaries)
	}
	if r.MeanPropDelay < 8*time.Millisecond {
		t.Errorf("prop delay = %v, want ~10ms", r.MeanPropDelay)
	}
}

func TestPropagationDisabled(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.TxnCommitted(time.Millisecond)
	c.SecondaryApplied(time.Now())
	if r := c.Snapshot(1); r.MeanPropDelay != 0 {
		t.Errorf("prop delay tracked while disabled: %v", r.MeanPropDelay)
	}
}

func TestCounters(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.MsgSent(3)
	c.MsgSent(2)
	c.RemoteRead()
	c.Dummy()
	c.Retry()
	r := c.Snapshot(1)
	if r.Messages != 5 || r.RemoteReads != 1 || r.Dummies != 1 || r.Retries != 1 {
		t.Errorf("counters = %+v", r)
	}
}

func TestNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	c.Begin()
	c.TxnCommitted(time.Second)
	c.TxnAborted()
	c.SecondaryApplied(time.Now())
	c.MsgSent(1)
	c.RemoteRead()
	c.Dummy()
	c.Retry()
	c.End()
	if r := c.Snapshot(9); r.Committed != 0 {
		t.Errorf("nil collector recorded: %+v", r)
	}
}

func TestSnapshotWithoutEndUsesNow(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.TxnCommitted(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	r := c.Snapshot(1)
	if r.Elapsed < 4*time.Millisecond {
		t.Errorf("elapsed = %v", r.Elapsed)
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := NewCollector(true)
	c.Begin()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.TxnCommitted(time.Microsecond)
				c.SecondaryApplied(time.Now())
				c.MsgSent(1)
			}
		}(g)
	}
	wg.Wait()
	r := c.Snapshot(8)
	if r.Committed != 1600 || r.Messages != 1600 || r.Secondaries != 1600 {
		t.Errorf("lost updates: %+v", r)
	}
}

func TestReportString(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.TxnCommitted(time.Millisecond)
	s := c.Snapshot(1).String()
	if s == "" {
		t.Error("empty report string")
	}
}

// TestPercentileEdgeCases pins the edge cases of the collector's
// percentiles: no samples yields zero, a single sample IS every
// percentile, p outside (0, 1] clamps to the exact extremes, and an
// interior percentile is within 1% of the true sample.
func TestPercentileEdgeCases(t *testing.T) {
	var h hist.Histogram
	pct := func(p float64) time.Duration { return time.Duration(h.Quantile(p)) }
	if got := pct(0.95); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	record(&h, 7*time.Millisecond)
	for _, p := range []float64{-1, 0, 0.5, 0.95, 1, 2} {
		if got := pct(p); got != 7*time.Millisecond {
			t.Errorf("single-sample percentile(%v) = %v, want the sample", p, got)
		}
	}
	record(&h, 1*time.Millisecond)
	record(&h, 3*time.Millisecond)
	if got := pct(-1); got != time.Millisecond {
		t.Errorf("percentile(-1) = %v, want the minimum", got)
	}
	if got := pct(2); got != 7*time.Millisecond {
		t.Errorf("percentile(2) = %v, want the maximum", got)
	}
	if got := pct(0.5); !within1pct(got, 3*time.Millisecond) {
		t.Errorf("percentile(0.5) = %v, want the median ±1%%", got)
	}
}

func TestSnapshotSingleSample(t *testing.T) {
	c := NewCollector(true)
	c.Begin()
	c.TxnCommitted(5 * time.Millisecond)
	c.SecondaryApplied(time.Now())
	c.End()
	r := c.Snapshot(1)
	if r.P50Response != 5*time.Millisecond || r.P95Response != 5*time.Millisecond {
		t.Errorf("single-sample response percentiles = %v/%v, want the sample", r.P50Response, r.P95Response)
	}
	if r.P95PropDelay == 0 || r.P95PropDelay != r.MaxPropDelay {
		t.Errorf("single-sample propagation p95 = %v, max = %v", r.P95PropDelay, r.MaxPropDelay)
	}
}

func TestReportJSON(t *testing.T) {
	c := NewCollector(false)
	c.Begin()
	c.TxnCommitted(time.Millisecond)
	c.TxnAborted()
	c.End()
	b, err := c.Snapshot(1).JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Committed != 1 || back.Aborted != 1 || back.MeanResponse != time.Millisecond {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

// TestReportJSONFieldNamesFrozen pins the Report JSON schema: BENCH_*.json
// snapshots, the replwatch HTTP export, and downstream tooling all parse
// these keys, so removing or renaming one is a breaking change. New fields
// may be appended; add them to the frozen list here when they land.
func TestReportJSONFieldNamesFrozen(t *testing.T) {
	frozen := []string{
		"Elapsed", "Committed", "Aborted", "ThroughputPerSite", "AbortRate",
		"MeanResponse", "P50Response", "P95Response", "MaxResponse",
		"MeanPropDelay", "P95PropDelay", "MaxPropDelay", "P99Response",
		"Messages", "RemoteReads", "Secondaries", "Dummies", "Retries",
		"Phases",
	}
	r := Report{Phases: map[string]PhaseStats{PhaseLockWait.String(): {Count: 1}}}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatalf("unmarshal keys: %v", err)
	}
	for _, name := range frozen {
		if _, ok := keys[name]; !ok {
			t.Errorf("Report JSON lost frozen field %q: renaming or removing it breaks consumers of the snapshot schema", name)
		}
		delete(keys, name)
	}
	for name := range keys {
		t.Errorf("Report JSON gained field %q: append it to the frozen list to pin it", name)
	}
}

// TestPhaseSample exercises the phase-attribution path: samples land in
// the right bucket, negative durations are clamped, unknown phases and
// nil collectors are dropped, and Snapshot exposes only non-empty phases.
func TestPhaseSample(t *testing.T) {
	var nilC *Collector
	nilC.PhaseSample(PhaseLockWait, time.Millisecond) // must not panic

	c := NewCollector(false)
	c.Begin()
	c.PhaseSample(PhaseLockWait, 2*time.Millisecond)
	c.PhaseSample(PhaseLockWait, 4*time.Millisecond)
	c.PhaseSample(PhaseApply, -time.Second) // clamps to 0
	c.PhaseSample(Phase(250), time.Second)  // out of range: dropped
	c.End()
	r := c.Snapshot(1)

	lw, ok := r.Phases[PhaseLockWait.String()]
	if !ok || lw.Count != 2 {
		t.Fatalf("lock_wait phase = %+v, ok=%v; want 2 samples", lw, ok)
	}
	if lw.Max != 4*time.Millisecond || lw.Total != 6*time.Millisecond {
		t.Errorf("lock_wait max/total = %v/%v, want 4ms/6ms", lw.Max, lw.Total)
	}
	if ap := r.Phases[PhaseApply.String()]; ap.Count != 1 || ap.Max != 0 {
		t.Errorf("apply phase = %+v, want one clamped-to-zero sample", ap)
	}
	if _, ok := r.Phases[PhaseQueueWait.String()]; ok {
		t.Errorf("empty phase %s should be omitted from the report", PhaseQueueWait)
	}
	for _, p := range Phases() {
		if p.String() == "" {
			t.Errorf("phase %d has no name", p)
		}
	}
}

// TestPercentilesCoverWholeRun feeds 65,536 fast samples followed by
// 200,000 slow ones: the p95 must describe the whole run (the slow
// samples are 75% of it), not just its opening samples.
func TestPercentilesCoverWholeRun(t *testing.T) {
	c := NewCollector(true)
	c.Begin()
	feed := func(n int, d time.Duration) {
		for i := 0; i < n; i++ {
			c.SecondaryApplied(time.Now().Add(-d))
			c.PhaseSample(PhaseLockWait, d)
		}
	}
	feed(1<<16, time.Millisecond)
	feed(200_000, 100*time.Millisecond)
	r := c.Snapshot(1)
	// The propagation samples carry a few µs of clock reads on top of
	// 100 ms; both stay well inside the 1% bound.
	if !within1pct(r.P95PropDelay, 100*time.Millisecond) {
		t.Errorf("propagation p95 = %v, want 100ms ±1%%", r.P95PropDelay)
	}
	if lw := r.Phases[PhaseLockWait.String()]; !within1pct(lw.P95, 100*time.Millisecond) {
		t.Errorf("lock_wait p95 = %v, want 100ms ±1%%", lw.P95)
	}
}

// TestCollectorMemoryBounded runs a million commit/apply pairs: with the
// commit time carried on the update and histograms in place of sample
// slices, the collector's heap must not grow with the run.
func TestCollectorMemoryBounded(t *testing.T) {
	c := NewCollector(true)
	c.Begin()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 1_000_000; i++ {
		committed := time.Now()
		c.TxnCommitted(time.Duration(i%5000) * time.Microsecond)
		c.SecondaryApplied(committed.Add(-time.Duration(i%7000) * time.Microsecond))
	}
	after := heap()
	if r := c.Snapshot(1); r.Committed != 1_000_000 || r.Secondaries != 1_000_000 {
		t.Fatalf("lost samples: %+v", r)
	}
	if after > before && after-before > 256<<10 {
		t.Errorf("heap grew by %d KB over 1,000,000 commit/apply pairs, want < 256 KB", (after-before)>>10)
	}
}

// TestApplyBeforeOriginCommitRecorded covers an apply that the collector
// sees before the origin's own TxnCommitted (the origin forwards inside
// its commit critical section and records afterwards): the stamp on the
// update makes it a sample regardless of the order.
func TestApplyBeforeOriginCommitRecorded(t *testing.T) {
	c := NewCollector(true)
	c.Begin()
	committed := time.Now().Add(-2 * time.Millisecond)
	c.SecondaryApplied(committed)
	c.TxnCommitted(time.Millisecond)
	r := c.Snapshot(1)
	if r.MaxPropDelay < 2*time.Millisecond {
		t.Errorf("early apply lost: max propagation delay = %v, want >= 2ms", r.MaxPropDelay)
	}
}

// BenchmarkCollectorSnapshot measures Snapshot with every distribution
// (response, propagation and the six phases) holding 65,536 samples.
// Snapshot runs under the collector mutex, so its cost is how long every
// concurrent TxnCommitted, SecondaryApplied and PhaseSample stalls.
func BenchmarkCollectorSnapshot(b *testing.B) {
	c := NewCollector(true)
	c.Begin()
	now := time.Now()
	for i := 0; i < 1<<16; i++ {
		d := time.Duration(i%10_000+1) * time.Microsecond
		c.TxnCommitted(d)
		c.SecondaryApplied(now.Add(-d))
		for _, p := range Phases() {
			c.PhaseSample(p, d)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapSink = c.Snapshot(9)
	}
}

var snapSink Report
