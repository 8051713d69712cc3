package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/model"
)

// synthTxn records a synthetic two-hop propagation: the primary at site 0
// commits and forwards to site 1, which applies and forwards to site 2,
// which applies. Returns the events and the transaction id.
func synthTxn(t *testing.T, seq uint64) ([]Event, model.TxnID) {
	t.Helper()
	tid := model.TxnID{Site: 0, Seq: seq}
	octx := model.SpanContext{TID: tid}
	hop1 := octx.Fork(0)
	hop2 := hop1.Fork(1)
	rec := NewRecorder()
	recCtx := func(k Kind, site, peer model.SiteID, sc model.SpanContext) {
		rec.RecordSpan(k, site, peer, sc.TID, 1, sc.SpanAt(site), sc.Parent)
	}
	recCtx(TxnBegin, 0, model.NoSite, octx)
	recCtx(TxnCommit, 0, model.NoSite, octx)
	recCtx(SecondaryForwarded, 0, 1, octx)
	recCtx(SecondaryEnqueued, 1, 0, hop1)
	recCtx(SecondaryApplied, 1, model.NoSite, hop1)
	recCtx(SecondaryForwarded, 1, 2, hop1)
	recCtx(SecondaryEnqueued, 2, 1, hop2)
	recCtx(SecondaryApplied, 2, model.NoSite, hop2)
	return rec.Snapshot(), tid
}

func TestBuildSpanTreesReconstructsChain(t *testing.T) {
	events, tid := synthTxn(t, 1)
	trees := BuildSpanTrees(events)
	tr := trees[tid]
	if tr == nil {
		t.Fatal("no tree for the transaction")
	}
	if tr.Root == nil || tr.Root.ID != model.RootSpan(tid) {
		t.Fatalf("root span missing or wrong: %+v", tr.Root)
	}
	if len(tr.Orphans) != 0 {
		t.Fatalf("unexpected orphans: %v", tr.Orphans)
	}
	if len(tr.Nodes) != 3 {
		t.Fatalf("want 3 spans (one per site), got %d", len(tr.Nodes))
	}
	if len(tr.Root.Children) != 1 || tr.Root.Children[0].Site != 1 {
		t.Fatalf("root should have exactly the site-1 child, got %+v", tr.Root.Children)
	}
	mid := tr.Root.Children[0]
	if !mid.Has(SecondaryApplied) {
		t.Error("site-1 span lost its applied event")
	}
	if len(mid.Children) != 1 || mid.Children[0].Site != 2 {
		t.Fatalf("site-1 span should parent the site-2 span, got %+v", mid.Children)
	}
	if got := VerifySpans(events); len(got) != 0 {
		t.Fatalf("VerifySpans on a well-formed stream: %v", got)
	}
}

// A relay site that forwards without applying (it holds no copy of the
// written item) still links the applying site below it to the root.
func TestBuildSpanTreesKeepsRelaySite(t *testing.T) {
	tid := model.TxnID{Site: 3, Seq: 4}
	octx := model.SpanContext{TID: tid}
	toRelay := octx.Fork(3)
	toLeaf := toRelay.Fork(1)
	rec := NewRecorder()
	recCtx := func(k Kind, site, peer model.SiteID, sc model.SpanContext) {
		rec.RecordSpan(k, site, peer, sc.TID, 1, sc.SpanAt(site), sc.Parent)
	}
	recCtx(TxnCommit, 3, model.NoSite, octx)
	recCtx(SecondaryForwarded, 3, 1, octx)
	recCtx(SecondaryForwarded, 1, 0, toRelay) // relay: no apply at s1
	recCtx(SecondaryApplied, 0, model.NoSite, toLeaf)

	tr := BuildSpanTrees(rec.Snapshot())[tid]
	if tr == nil || tr.Root == nil || len(tr.Orphans) != 0 {
		t.Fatalf("tree = %+v", tr)
	}
	if len(tr.Root.Children) != 1 || tr.Root.Children[0].Site != 1 || tr.Root.Children[0].Has(SecondaryApplied) {
		t.Fatalf("relay child = %+v", tr.Root.Children)
	}
	want := "site=3\n  site=1\n    site=0 applied\n"
	if got := tr.Structure(); got != want {
		t.Fatalf("Structure:\n%s\nwant:\n%s", got, want)
	}
}

func TestBuildSpanTreesSkipsUnattributed(t *testing.T) {
	rec := NewRecorder()
	rec.Record(DummySent, 0, 1, model.TxnID{}, 2)                 // zero TID
	rec.Record(TxnBegin, 0, model.NoSite, model.TxnID{Seq: 1}, 2) // zero span
	if got := BuildSpanTrees(rec.Snapshot()); len(got) != 0 {
		t.Fatalf("unattributed events must not build trees: %v", got)
	}
}

func TestVerifySpansReportsOrphanAndMissingRoot(t *testing.T) {
	tid := model.TxnID{Site: 3, Seq: 9}
	rec := NewRecorder()
	// An applied event whose parent span was never recorded, for a
	// transaction with no root span at all.
	rec.RecordSpan(SecondaryApplied, 1, model.NoSite, tid, 1, model.SpanID(42), model.SpanID(41))
	problems := VerifySpans(rec.Snapshot())
	if len(problems) != 2 {
		t.Fatalf("want no-root + orphan problems, got %v", problems)
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, "no root span") || !strings.Contains(joined, "unresolved parent") {
		t.Fatalf("problem text missing expected descriptions: %v", problems)
	}
}

func TestStructureIsStableAndFiltersNonApplied(t *testing.T) {
	events, tid := synthTxn(t, 1)
	// Add an aux child (a retransmission) under the root: it must not
	// appear in the structure.
	root := model.RootSpan(tid)
	rec := NewRecorder()
	rec.RecordSpan(RelRetransmit, 0, 1, tid, 0, model.AuxSpan(root, 7), root)
	events = append(events, rec.Snapshot()...)

	tr := BuildSpanTrees(events)[tid]
	want := "site=0\n  site=1 applied\n    site=2 applied\n"
	if got := tr.Structure(); got != want {
		t.Fatalf("Structure:\n%s\nwant:\n%s", got, want)
	}

	// Same logical run, different wall clock: byte-identical structure.
	events2, _ := synthTxn(t, 1)
	if got := BuildSpanTrees(events2)[tid].Structure(); got != want {
		t.Fatalf("Structure not stable across runs:\n%s", got)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	events, _ := synthTxn(t, 1)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("empty export")
	}
	meta, inst := 0, 0
	last := make(map[[2]int]int64)
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "i":
			inst++
			key := [2]int{ev.Pid, ev.Tid}
			if ts, ok := last[key]; ok && ev.Ts < ts {
				t.Fatalf("track %v timestamps not monotone: %d after %d", key, ev.Ts, ts)
			}
			last[key] = ev.Ts
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 3 {
		t.Errorf("want one process_name metadata per site (3), got %d", meta)
	}
	if inst != len(events) {
		t.Errorf("want %d instant events, got %d", len(events), inst)
	}
}
