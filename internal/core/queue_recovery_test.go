package core

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/wal"
)

// TestRecoveryRequeuesBeyondOldQueueBound rebuilds DAG(WT) and BackEdge
// engines over a redo log holding 65,537 unconsumed receipts, one more
// than a 65,536-slot channel holds. Recovery re-enqueues every receipt
// before Start, with no consumer running yet, so an apply queue of
// bounded capacity would hang construction. The engine must come up and
// its applier must apply every receipt in log order.
func TestRecoveryRequeuesBeyondOldQueueBound(t *testing.T) {
	if testing.Short() {
		t.Skip("applies 65,537 durable records per engine")
	}
	if raceEnabled {
		// One applier goroutine per engine and nothing shared between
		// them; under the detector the log encoding alone takes minutes.
		t.Skip("applies 65,537 durable records per engine")
	}
	const n = 1<<16 + 1
	// Item 0: primary at site 0, replica at site 1. Site 1 is the
	// recovering engine; every receipt is a secondary from site 0.
	p := placement(t, 2, []model.SiteID{0}, [][]model.SiteID{{1}})
	logOpts := wal.Options{Site: 1, Items: p.CopiesAt(1), SnapshotBytes: -1}

	src := t.TempDir()
	lg, err := wal.Open(src, logOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		tid := model.TxnID{Site: 0, Seq: uint64(i)}
		rec := wal.Record{
			Kind: wal.KindReceipt, From: 0, MsgKind: kindSecondary, TID: tid,
			Writes: []model.WriteOp{{Item: 0, Value: int64(i)}},
			Span:   model.SpanContext{TID: tid}.Fork(0),
		}
		if err := lg.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	for _, proto := range []Protocol{DAGWT, BackEdge} {
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			copyDir(t, src, dir)
			lg, err := wal.Open(dir, logOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer lg.Close()
			if got := len(lg.Recovered().Receipts); got != n {
				t.Fatalf("log holds %d unconsumed receipts, want %d", got, n)
			}
			order := []model.SiteID{0, 1}
			tree := graph.BuildChain(order)
			cfg := &SharedConfig{
				Placement:    p,
				Graph:        graph.FromPlacement(p),
				Order:        order,
				Tree:         tree,
				SubtreeItems: graph.SubtreeCopyItems(tree, p),
				Backedges:    map[graph.Edge]bool{},
				Params:       testParams(),
				WALs:         map[model.SiteID]*wal.SiteLog{1: lg},
			}
			tr := comm.NewMemTransport(0)
			defer tr.Close()

			built := make(chan Engine, 1)
			go func() {
				e, err := New(proto, cfg, 1, tr)
				if err != nil {
					t.Error(err)
				}
				built <- e
			}()
			var e Engine
			select {
			case e = <-built:
			case <-time.After(time.Minute):
				t.Fatal("engine construction hung re-enqueueing recovered receipts")
			}
			if e == nil {
				return
			}
			e.Start()
			defer e.Stop()

			store := e.(interface{ Snapshot() map[model.ItemID]int64 })
			deadline := time.Now().Add(2 * time.Minute)
			for store.Snapshot()[0] != n {
				if time.Now().After(deadline) {
					t.Fatalf("applier stopped at value %d of %d", store.Snapshot()[0], n)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			in.Close()
			t.Fatal(err)
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
