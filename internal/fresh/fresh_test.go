package fresh

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/hist"
	"repro/internal/model"
	"repro/internal/trace"
)

func TestNilTrackerIsNoOp(t *testing.T) {
	var tr *Tracker
	tr.NoteCommit(1)
	tr.NoteApply(0, 1)
	if c := tr.CertifyRead(0, 1, 0); c.Stale() {
		t.Fatalf("nil tracker certified a stale read: %+v", c)
	}
	if c := tr.CertifyFresh(0); c.Stale() {
		t.Fatalf("nil tracker CertifyFresh returned stale: %+v", c)
	}
	tr.StartProbe(time.Millisecond)
	tr.StopProbe()
	if s := tr.Summarize(); s != nil {
		t.Fatalf("nil tracker summarized to %+v, want nil", s)
	}
}

func TestCertifyReadVersionLag(t *testing.T) {
	tr := New(2)
	item := model.ItemID(7)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.NoteCommit(item)

	c := tr.CertifyRead(1, item, 1)
	if c.Versions != 2 {
		t.Fatalf("read of v1 with latest=3: Versions=%d, want 2", c.Versions)
	}
	if !c.Stale() {
		t.Fatal("2 versions behind but Stale()=false")
	}
	if c.Behind < 0 {
		t.Fatalf("negative Behind %v", c.Behind)
	}
	if c := tr.CertifyRead(1, item, 3); c.Stale() {
		t.Fatalf("read of the latest version certified stale: %+v", c)
	}
	// Unknown item: nothing committed, nothing to be behind.
	if c := tr.CertifyRead(1, model.ItemID(99), 0); c.Stale() {
		t.Fatalf("read of an uncommitted item certified stale: %+v", c)
	}
}

func TestNoteApplySamplesVersionLag(t *testing.T) {
	tr := New(2)
	item := model.ItemID(3)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.NoteApply(1, item) // applied counter 1, latest 3 → lag 2

	s := tr.Summarize()
	if s.Applies != 1 {
		t.Fatalf("Applies=%d, want 1", s.Applies)
	}
	if got := s.VersionLag.Max; got != 2 {
		t.Fatalf("VersionLag.Max=%d, want 2", got)
	}
	// Two more applies catch the replica up: lag samples 1 then 0.
	tr.NoteApply(1, item)
	tr.NoteApply(1, item)
	s = tr.Summarize()
	if s.Applies != 3 || s.VersionLag.Count != 3 {
		t.Fatalf("after catch-up: applies=%d lagSamples=%d, want 3/3", s.Applies, s.VersionLag.Count)
	}
}

func TestSummaryRollsUpSitesAndRates(t *testing.T) {
	tr := New(3)
	item := model.ItemID(1)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.CertifyFresh(0)
	tr.CertifyFresh(0)
	tr.CertifyRead(2, item, 1) // one version behind → stale

	s := tr.Summarize()
	if s.Reads() != 3 {
		t.Fatalf("Reads()=%d, want 3", s.Reads())
	}
	if s.ReadsFresh != 2 || s.ReadsStale != 1 {
		t.Fatalf("fresh/stale=%d/%d, want 2/1", s.ReadsFresh, s.ReadsStale)
	}
	if pct := s.StaleReadPct(); pct < 33.2 || pct > 33.4 {
		t.Fatalf("StaleReadPct=%f, want ~33.3", pct)
	}
	if len(s.Sites) != 2 {
		t.Fatalf("%d site rows, want 2 (silent site omitted): %+v", len(s.Sites), s.Sites)
	}
	if s.Sites[0].Site != 0 || s.Sites[1].Site != 2 {
		t.Fatalf("site rows out of order: %+v", s.Sites)
	}
	var empty *Summary
	if empty.Reads() != 0 || empty.StaleReadPct() != 0 {
		t.Fatal("nil summary accessors must return zero")
	}
}

func TestProbeSamplesLaggingReplicas(t *testing.T) {
	tr := New(2)
	item := model.ItemID(5)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.NoteApply(1, item) // behind by one from here on
	before := tr.Summarize().VersionLag.Count
	tr.probe()
	after := tr.Summarize().VersionLag.Count
	if after != before+1 {
		t.Fatalf("probe added %d lag samples, want 1", after-before)
	}
}

// TestHistPercentileBounds pins the freshness distributions' error
// bound: version lags (small integers) come back exact, larger values
// within 1%, every percentile inside [min, max], and merging into an
// empty histogram leaves the distribution unchanged.
// TestHistPercentileBounds pins the freshness distributions' error
// bound: version lags (small integers) come back exact, larger values
// within 1%, every percentile inside [min, max], and merging into an
// empty histogram leaves the distribution unchanged.
func TestHistPercentileBounds(t *testing.T) {
	var h hist.Histogram
	if got := dist(&h); got != (Dist{}) {
		t.Fatalf("empty dist = %+v, want zero", got)
	}
	for i := 0; i < 99; i++ {
		h.Record(10)
	}
	h.Record(1000)
	d := dist(&h)
	if d.Count != 100 || d.Max != 1000 {
		t.Fatalf("count/max=%d/%d, want 100/1000", d.Count, d.Max)
	}
	if d.P50 != 10 || d.P95 != 10 {
		t.Fatalf("p50/p95=%d/%d, want exactly 10", d.P50, d.P95)
	}
	// p99 is rank 99 of 100: still the 10s.
	if d.P99 != 10 {
		t.Fatalf("p99=%d, want 10", d.P99)
	}
	var lag hist.Histogram
	for i := 0; i < 100; i++ {
		lag.Record(uint64(5000 + i*100)) // µs, 5 ms to 14.9 ms
	}
	if p95 := dist(&lag).P95; p95 < 14300*99/100 || p95 > 14300*101/100 {
		t.Fatalf("p95=%d, want 14300 ±1%%", p95)
	}
	var m hist.Histogram
	m.Merge(&h)
	if dist(&m) != d {
		t.Fatal("merge into empty hist changed the distribution")
	}
}

func TestBuildWaterfallsJoinsSegments(t *testing.T) {
	tid := model.TxnID{Site: 0, Seq: 1}
	us := int64(time.Microsecond)
	events := []trace.Event{
		{T: 0, Kind: trace.TxnCommit, Site: 0, TID: tid, Proto: 1},
		// Origin hop: commit at 0, forwarded at 100µs, enqueued at s1 at 150µs.
		{T: 100 * us, Kind: trace.SecondaryForwarded, Site: 0, Peer: 1, TID: tid, Proto: 1},
		{T: 150 * us, Kind: trace.SecondaryEnqueued, Site: 1, Peer: 0, TID: tid, Proto: 1},
		{Kind: trace.PhaseLatency, Site: 1, TID: tid, Proto: 1, Phase: "queue_wait", Dur: 30 * us},
		{Kind: trace.PhaseLatency, Site: 1, TID: tid, Proto: 1, Phase: "lock_wait", Dur: 20 * us},
		{Kind: trace.PhaseLatency, Site: 1, TID: tid, Proto: 1, Phase: "apply", Dur: 10 * us},
		// Relay hop: s1 forwards at 400µs (enqueue = 400-150 = 250µs),
		// enqueued at s2 at 500µs (wire 100µs).
		{T: 400 * us, Kind: trace.SecondaryForwarded, Site: 1, Peer: 2, TID: tid, Proto: 1},
		{T: 500 * us, Kind: trace.SecondaryEnqueued, Site: 2, Peer: 1, TID: tid, Proto: 1},
		// A forward whose receipt never arrived must not join.
		{T: 600 * us, Kind: trace.SecondaryForwarded, Site: 2, Peer: 3, TID: tid, Proto: 1},
	}
	wfs := BuildWaterfalls(events)
	if len(wfs) != 2 {
		t.Fatalf("%d waterfalls, want 2 (unreceived forward dropped): %+v", len(wfs), wfs)
	}
	first := wfs[0]
	if first.From != 0 || first.To != 1 || first.Count != 1 {
		t.Fatalf("first edge = s%d->s%d count=%d, want s0->s1 count=1", first.From, first.To, first.Count)
	}
	want := map[string]uint64{"enqueue": 100, "wire": 50, "queue_wait": 30, "lock_wait": 20, "apply": 10}
	for _, seg := range first.Segments {
		if got := seg.US.Max; got != want[seg.Name] {
			t.Fatalf("s0->s1 %s = %dµs, want %d", seg.Name, got, want[seg.Name])
		}
	}
	relay := wfs[1]
	if relay.From != 1 || relay.To != 2 {
		t.Fatalf("second edge = s%d->s%d, want s1->s2", relay.From, relay.To)
	}
	if got := relay.Segments[0].US.Max; got != 250 {
		t.Fatalf("relay enqueue = %dµs, want 250 (receipt→forward)", got)
	}
	if got := relay.Segments[1].US.Max; got != 100 {
		t.Fatalf("relay wire = %dµs, want 100", got)
	}

	lines := FormatWaterfalls(wfs)
	if len(lines) != 3 {
		t.Fatalf("%d table lines, want header + 2 rows", len(lines))
	}
	if !strings.Contains(lines[0], "queue_wait") || !strings.Contains(lines[1], "s0->s1") {
		t.Fatalf("unexpected table:\n%s", strings.Join(lines, "\n"))
	}
	if FormatWaterfalls(nil) != nil {
		t.Fatal("formatting no waterfalls must yield no lines")
	}
}

func TestCanonicalEncodeIsByteStable(t *testing.T) {
	edges := []Edge{{From: 2, To: 3}, {From: 0, To: 1}, {From: 1, To: 2}}
	c := NewCanonical("DAG(WT)", 7, 4, false, edges, 100)
	if c.Edges[0] != "s0->s1" || c.Edges[2] != "s2->s3" {
		t.Fatalf("edges not sorted: %v", c.Edges)
	}
	var a, b bytes.Buffer
	if err := c.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := NewCanonical("DAG(WT)", 7, 4, false, edges, 100).Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same inputs, different bytes:\n%s\n----\n%s", a.String(), b.String())
	}
	if !bytes.HasSuffix(a.Bytes(), []byte("\n")) {
		t.Fatal("canonical document must end in a newline")
	}
}
