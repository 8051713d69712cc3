package core

import (
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/fifo"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/watch"
)

// dagwtEngine implements the DAG(WT) protocol (§2). Updates travel only
// along the edges of the tree cfg.Tree; every site has (at most) one tree
// parent, so a single FIFO queue holds the incoming secondary
// subtransactions, which are applied and forwarded in receipt order. The
// commit mutex makes "commit, then forward to relevant children" atomic,
// so the forwarding order at a site always equals its commit order.
type dagwtEngine struct {
	base
	queue *fifo.Queue[queuedMsg]
	prog  *watch.Progress
}

func newDAGWT(cfg *SharedConfig, id model.SiteID, tr comm.Transport) *dagwtEngine {
	e := &dagwtEngine{
		base:  newBase(cfg, DAGWT, id, tr),
		queue: fifo.New[queuedMsg](),
		prog:  cfg.Watch.Queue(id, "fifo"),
	}
	e.recover()
	return e
}

// recover rebuilds the engine's in-flight work from the redo log: applies
// whose forwarding was not marked done are re-sent (receivers
// deduplicate), and unconsumed receipts are re-enqueued in arrival order.
// Re-forwards take fresh pending obligations; re-enqueued receipts
// inherit the ones their original deliveries left unreleased, so no
// pendAdd here.
func (e *dagwtEngine) recover() {
	if e.wal == nil {
		return
	}
	rec := e.wal.Recovered()
	for _, f := range rec.Forwards {
		forwardTree(&e.base, f.Span, f.Writes)
	}
	for _, r := range rec.Receipts {
		e.obs.fifoDepth.Inc()
		e.prog.Push()
		e.queue.Push(queuedMsg{msg: comm.Message{
			From: r.From, To: e.id, Kind: kindSecondary, Span: r.Span,
			Payload: secondaryPayload{TID: r.TID, TS: r.TS, Writes: r.Writes},
		}})
	}
}

func (e *dagwtEngine) Start() { go e.applier() }

func (e *dagwtEngine) Stop() { e.halt() }

// Execute runs a primary subtransaction: purely local execution under
// strict 2PL, then an atomic commit-and-forward.
func (e *dagwtEngine) Execute(ops []model.Op) error {
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
		e.forward(octx, writes)
	}
	e.commitMu.Unlock()
	if err != nil {
		e.recAbort(tid, contend.Classify(err))
		return err
	}
	e.recCommit(start)
	return nil
}

// forward schedules secondary subtransactions at the relevant tree
// children: those whose subtree holds a replica of an updated item. The
// caller holds commitMu.
func (e *dagwtEngine) forward(sc model.SpanContext, writes []model.WriteOp) {
	forwardTree(&e.base, sc, writes)
}

func (e *dagwtEngine) Handle(msg comm.Message) {
	if msg.IsResp {
		e.rpc.HandleResponse(msg)
		return
	}
	switch msg.Kind {
	case kindSecondary:
		if !e.logReceipt(msg) {
			return // fenced mid-crash: dropped unacknowledged, retransmitted
		}
		e.traceCtx(trace.SecondaryEnqueued, msg.From, msg.Span)
		e.recTransport(msg, msg.Span.TID)
		e.obs.fifoDepth.Inc()
		e.prog.Push()
		e.queue.Push(queuedMsg{msg: msg, at: e.phaseClock()})
	default:
		panic("core: DAG(WT) received unexpected message kind")
	}
}

// applier consumes the FIFO queue: each secondary subtransaction is
// executed to commit (resubmitting after deadlock timeouts, §2) and then
// forwarded onward, preserving receipt order.
func (e *dagwtEngine) applier() {
	for {
		q, ok := e.queue.Pop(e.stop)
		if !ok {
			return
		}
		e.obs.fifoDepth.Dec()
		e.prog.Pop()
		p := q.msg.Payload.(secondaryPayload)
		e.phaseSince(metrics.PhaseQueueWait, q.msg.From, p.TID, q.at)
		if !e.applySecondary(p, q.msg.Span) {
			return // stopped mid-retry
		}
		e.pendDone()
	}
}

// applySecondary retries the subtransaction until it commits; it reports
// false only if the engine stopped first. On commit the subtransaction is
// forwarded to the relevant children atomically.
func (e *dagwtEngine) applySecondary(p secondaryPayload, sc model.SpanContext) bool {
	for {
		if e.stopping() {
			return false
		}
		if e.wasApplied(p.TID) {
			// A crash-recovery re-forward duplicated this delivery:
			// consume its receipt without re-applying (exactly-once).
			return e.consumeOnly(p.TID)
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
		e.commitMu.Lock()
		e.armDurable(t, wal.Record{
			Kind: wal.KindApply, TID: p.TID, Role: wal.RoleSecondary,
			Consumes: true, Forwards: len(p.Writes) > 0,
			Writes: p.Writes, Span: sc,
		})
		err := t.Commit()
		if err == nil {
			e.forward(sc, p.Writes)
		}
		e.commitMu.Unlock()
		if err != nil {
			// A fenced redo log (crash in progress): loop back to the
			// stopping() check. Otherwise unreachable — writes target local
			// copies only.
			e.recRetry()
			e.retryBackoff()
			continue
		}
		e.noteApplied(p.Writes)
		e.recApplied(sc)
		return true
	}
}
