package core

import (
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wal"
)

// naiveEngine is the indiscriminate lazy propagation most commercial
// systems offered (§1, §1.2): after a transaction commits, its updates
// are shipped directly to every replica site and applied there as
// independent transactions with no ordering control beyond per-edge FIFO.
// Example 1.1 shows this is NOT serializable even on a DAG copy graph;
// the engine exists as the negative control for the serializability
// checker and the anomaly example.
type naiveEngine struct {
	base
}

func newNaive(cfg *SharedConfig, id model.SiteID, tr comm.Transport) *naiveEngine {
	e := &naiveEngine{base: newBase(cfg, NaiveLazy, id, tr)}
	e.recover()
	return e
}

// recover re-sends applies whose fan-out was not marked done (receivers
// deduplicate; fresh pending obligations) and re-processes unconsumed
// receipts (which inherit their original obligations — no pendAdd).
func (e *naiveEngine) recover() {
	if e.wal == nil {
		return
	}
	rec := e.wal.Recovered()
	for _, f := range rec.Forwards {
		e.fanOut(f.Span, f.TID, f.Writes)
	}
	for _, r := range rec.Receipts {
		go e.applySecondary(secondaryPayload{TID: r.TID, Writes: r.Writes}, r.Span)
	}
}

func (e *naiveEngine) Start() {}

func (e *naiveEngine) Stop() { e.halt() }

// fanOut ships each replica site exactly the writes it stores, then
// marks the propagation obligation discharged.
func (e *naiveEngine) fanOut(octx model.SpanContext, tid model.TxnID, writes []model.WriteOp) {
	perSite := make(map[model.SiteID][]model.WriteOp)
	for _, w := range writes {
		for _, r := range e.cfg.Placement.ReplicaSites(w.Item) {
			perSite[r] = append(perSite[r], w)
		}
	}
	// Ship in site order, not map order: the transport draws its
	// seeded jitter in Send order, so map-ordered sends would perturb
	// schedule replay.
	sites := make([]model.SiteID, 0, len(perSite))
	for r := range perSite {
		sites = append(sites, r)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	out := octx.Fork(e.id)
	for _, r := range sites {
		e.pendAdd(1)
		e.obs.forwarded.Inc()
		e.traceCtx(trace.SecondaryForwarded, r, octx)
		e.send(comm.Message{
			From: e.id, To: r, Kind: kindSecondary, Span: out,
			Payload: secondaryPayload{TID: tid, Writes: perSite[r]},
		})
	}
	e.walForwarded(tid)
}

func (e *naiveEngine) Execute(ops []model.Op) error {
	//lint:allow nodeterminism commit-latency stamp for metrics; never branches protocol logic
	start := time.Now()
	tid := e.newTxnID()
	octx := model.SpanContext{TID: tid}
	e.traceCtx(trace.TxnBegin, model.NoSite, octx)
	t := e.tm.Begin(tid)
	if err := e.runLocalOps(t, ops); err != nil {
		e.recAbort(tid, contend.Classify(err))
		return err
	}
	writes := t.Writes()
	e.commitMu.Lock()
	e.armDurable(t, wal.Record{
		Kind: wal.KindApply, TID: tid, Role: wal.RoleOrigin,
		Writes: writes, Forwards: len(writes) > 0, Span: octx,
	})
	err := t.Commit()
	if err == nil {
		octx.Committed = e.phaseClock()
		e.traceCtx(trace.TxnCommit, model.NoSite, octx)
		e.noteCommitted(writes)
		if len(writes) > 0 {
			e.fanOut(octx, tid, writes)
		}
	}
	e.commitMu.Unlock()
	if err != nil {
		e.recAbort(tid, contend.Classify(err))
		return err
	}
	e.recCommit(start)
	return nil
}

func (e *naiveEngine) Handle(msg comm.Message) {
	if msg.IsResp {
		e.rpc.HandleResponse(msg)
		return
	}
	switch msg.Kind {
	case kindSecondary:
		if !e.logReceipt(msg) {
			return // fenced mid-crash: dropped unacknowledged, retransmitted
		}
		// Applied on arrival, concurrently — this is precisely the
		// indiscriminate behaviour that loses serializability.
		e.traceCtx(trace.SecondaryEnqueued, msg.From, msg.Span)
		e.recTransport(msg, msg.Span.TID)
		go e.applySecondary(msg.Payload.(secondaryPayload), msg.Span)
	default:
		panic("core: NaiveLazy received unexpected message kind")
	}
}

// applySecondary retries the subtransaction to commit and releases its
// pending obligation only once the consumption is durable; a stop (or a
// fence) exits without pendDone, leaving the obligation to recovery.
func (e *naiveEngine) applySecondary(p secondaryPayload, sc model.SpanContext) {
	for {
		if e.stopping() {
			return
		}
		if e.wasApplied(p.TID) {
			// A crash-recovery re-forward duplicated this delivery:
			// consume its receipt without re-applying (exactly-once).
			e.consumeAndDone(p.TID)
			return
		}
		t := e.tm.BeginSecondary(p.TID)
		ok := true
		for _, w := range p.Writes {
			if !e.store.Has(w.Item) {
				continue
			}
			e.simulateOp()
			if err := t.Write(w.Item, w.Value); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			e.recRetry()
			e.retryBackoff()
			continue
		}
		e.armDurable(t, wal.Record{
			Kind: wal.KindApply, TID: p.TID, Role: wal.RoleSecondary,
			Consumes: true, Writes: p.Writes, Span: sc,
		})
		if err := t.Commit(); err != nil {
			e.recRetry()
			e.retryBackoff()
			continue
		}
		e.noteApplied(p.Writes)
		e.recApplied(sc)
		e.pendDone()
		return
	}
}
