package core

import (
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/ts"
	"repro/internal/wal"
	"repro/internal/watch"
)

// dagtEngine implements the DAG(T) protocol (§3). Updates travel directly
// along copy-graph edges; each site keeps one incoming queue per
// copy-graph parent and executes the secondary subtransaction with the
// minimum timestamp among the queue heads, but only once every queue is
// non-empty. Epoch numbers advanced by the sources, plus dummy
// subtransactions on idle edges, guarantee progress (§3.3).
type dagtEngine struct {
	base

	parents  []model.SiteID
	children []model.SiteID
	// childItems[c] is the set of items whose primary is here with a
	// replica at child c; a child is relevant for a transaction iff it
	// replicates one of the updated items (§3.2.2 step 3).
	childItems map[model.SiteID]map[model.ItemID]bool

	// tsMu guards the site timestamp state; it is the §3.2.2 critical
	// section together with commitMu.
	tsMu     sync.Mutex
	siteTS   ts.Timestamp               // repl:guardedby(tsMu)
	ltsi     uint64                     // primary subtransactions committed here (LTSi) // repl:guardedby(tsMu)
	lastSent map[model.SiteID]time.Time // repl:guardedby(tsMu)

	// qMu/qCond guard the per-parent queues.
	qMu    sync.Mutex
	qCond  *sync.Cond
	queues map[model.SiteID][]tsItem // repl:guardedby(qMu)

	prog *watch.Progress
}

// tsItem is one queued secondary subtransaction with the causal context
// it arrived under and its enqueue stamp (queue-wait attribution).
type tsItem struct {
	p  secondaryPayload
	sc model.SpanContext
	at time.Time
}

//lint:allow guardedby construction is single-threaded; the scheduler, tickers, and watchdog callback that share these fields only start in Start, after newDAGT returns
func newDAGT(cfg *SharedConfig, id model.SiteID, tr comm.Transport) *dagtEngine {
	e := &dagtEngine{
		base:       newBase(cfg, DAGT, id, tr),
		parents:    cfg.Graph.Parents(id),
		children:   cfg.Graph.Children(id),
		childItems: make(map[model.SiteID]map[model.ItemID]bool),
		siteTS:     ts.New(id),
		lastSent:   make(map[model.SiteID]time.Time),
		queues:     make(map[model.SiteID][]tsItem),
	}
	e.prog = cfg.Watch.Queue(id, "ts")
	e.qCond = sync.NewCond(&e.qMu)
	for _, c := range e.children {
		e.childItems[c] = make(map[model.ItemID]bool)
		//lint:allow nodeterminism lastSent feeds the wall-clock dummy ticker, not protocol ordering
		e.lastSent[c] = time.Now()
	}
	p := cfg.Placement
	for _, item := range p.PrimariesAt(id) {
		for _, r := range p.ReplicaSites(item) {
			if set, ok := e.childItems[r]; ok {
				set[item] = true
			}
		}
	}
	for _, par := range e.parents {
		e.queues[par] = nil
	}
	e.recoverWAL()
	// The watchdog's DAG(T) liveness probe: the site's current epoch plus
	// any parent whose empty queue is blocking the timestamp scheduler
	// while a sibling queue has work (the §3.3 stall the dummy mechanism
	// exists to prevent).
	cfg.Watch.RegisterEpoch(id, func() watch.EpochStatus {
		e.tsMu.Lock()
		st := watch.EpochStatus{Epoch: e.siteTS.Epoch}
		e.tsMu.Unlock()
		e.qMu.Lock()
		nonEmpty := false
		for _, par := range e.parents {
			if len(e.queues[par]) > 0 {
				nonEmpty = true
				break
			}
		}
		if nonEmpty {
			for _, par := range e.parents {
				if len(e.queues[par]) == 0 {
					st.Blocked = append(st.Blocked, par)
				}
			}
		}
		e.qMu.Unlock()
		return st
	})
	return e
}

func (e *dagtEngine) Start() {
	if len(e.parents) > 0 {
		go e.scheduler()
	}
	if len(e.children) > 0 {
		go e.dummyTicker()
	}
	if len(e.parents) == 0 && len(e.children) > 0 {
		go e.epochTicker()
	}
}

// recoverWAL rebuilds the timestamp state from the last durable apply,
// re-sends unmarked forwards, and re-enqueues unconsumed receipts (in
// log order, which is per-parent arrival order).
//
//lint:allow guardedby recovery runs inside newDAGT before any goroutine that shares the timestamp or queue state exists
func (e *dagtEngine) recoverWAL() {
	if e.wal == nil {
		return
	}
	rec := e.wal.Recovered()
	if rec.HasApply {
		// The last apply record fully determines the site timestamp: an
		// origin commit stamped its own clone; a secondary commit appended
		// the local tuple to the payload timestamp (advanceTS).
		if rec.LastRole == wal.RoleOrigin {
			e.siteTS = rec.LastTS.Clone()
		} else {
			e.siteTS = rec.LastTS.Append(ts.Tuple{Site: e.id, LTS: rec.LastLTSI})
		}
		e.ltsi = rec.LastLTSI
	}
	// Jump past every LTS advance the pre-crash incarnation could have
	// shipped without logging it (dummy bumps are deliberately not
	// durable): this site's own tuple must keep strictly increasing down
	// every edge. LTS is only ever compared against this site's own
	// earlier tuples, so an over-generous jump costs nothing.
	e.ltsi += 1 << 20
	e.siteTS.Tuples[len(e.siteTS.Tuples)-1].LTS = e.ltsi
	// The epoch is different: ts.Compare orders by epoch first, across
	// sites, so it must resume at *exactly* the largest epoch the disk
	// knows. Regressing (below a pre-crash shipment) breaks per-edge
	// timestamp monotonicity; overshooting (the tempting large jump)
	// makes every post-recovery timestamp dominate the cluster and
	// starves this site's entries in its children's min-timestamp head
	// selection until the sources tick their way up to it. Every
	// pre-crash shipment's epoch is durably backed — apply records carry
	// their timestamp, and source epoch ticks append KindEpoch before
	// publishing — so MaxEpoch is a tight, safe resume point.
	e.siteTS.Epoch = rec.MaxEpoch
	for _, f := range rec.Forwards {
		e.schedule(f.Span, f.TS, f.Writes)
	}
	for _, r := range rec.Receipts {
		e.obs.tsDepth.Inc()
		e.prog.Push()
		e.queues[r.From] = append(e.queues[r.From], tsItem{
			p: secondaryPayload{TID: r.TID, TS: r.TS, Writes: r.Writes}, sc: r.Span,
		})
	}
}

func (e *dagtEngine) Stop() {
	e.halt()
	e.qCond.Broadcast()
}

// Execute runs a primary subtransaction. At commit, inside the critical
// section, the site's local timestamp counter is incremented, the
// transaction takes the site timestamp, and secondary subtransactions are
// scheduled at the relevant children (§3.2.2).
func (e *dagtEngine) Execute(ops []model.Op) error {
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
	e.tsMu.Lock()
	e.ltsi++
	e.siteTS.Tuples[len(e.siteTS.Tuples)-1].LTS = e.ltsi
	tsT := e.siteTS.Clone()
	ltsi := e.ltsi
	e.tsMu.Unlock()
	e.armDurable(t, wal.Record{
		Kind: wal.KindApply, TID: tid, Role: wal.RoleOrigin,
		Writes: writes, Forwards: len(writes) > 0,
		TS: tsT, LTSI: ltsi, Span: octx,
	})
	err := t.Commit()
	if err == nil {
		octx.Committed = e.phaseClock()
		e.traceCtx(trace.TxnCommit, model.NoSite, octx)
		e.noteCommitted(writes)
		e.schedule(octx, tsT, writes)
	}
	e.commitMu.Unlock()
	if err != nil {
		e.recAbort(tid, contend.Classify(err))
		return err
	}
	e.recCommit(start)
	return nil
}

// schedule appends the transaction's writes to the incoming queues of the
// relevant children. The caller holds commitMu.
func (e *dagtEngine) schedule(sc model.SpanContext, tsT ts.Timestamp, writes []model.WriteOp) {
	out := sc.Fork(e.id)
	for _, c := range e.children {
		var local []model.WriteOp
		items := e.childItems[c]
		for _, w := range writes {
			if items[w.Item] {
				local = append(local, w)
			}
		}
		if len(local) == 0 {
			continue
		}
		e.tsMu.Lock()
		//lint:allow nodeterminism lastSent feeds the wall-clock dummy ticker, not protocol ordering
		e.lastSent[c] = time.Now()
		e.tsMu.Unlock()
		e.pendAdd(1)
		e.obs.forwarded.Inc()
		e.traceCtx(trace.SecondaryForwarded, c, sc)
		e.send(comm.Message{
			From: e.id, To: c, Kind: kindSecondary, Span: out,
			Payload: secondaryPayload{TID: sc.TID, TS: tsT, Writes: local},
		})
	}
	e.walForwarded(sc.TID)
}

// dummyTicker sends a dummy secondary subtransaction down any copy-graph
// edge that has been silent for DummyPeriod, pushing the site timestamp
// (and with it, epoch advances) forward so children never stall (§3.3).
func (e *dagtEngine) dummyTicker() {
	t := time.NewTicker(e.cfg.Params.DummyPeriod / 2)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-e.stop:
			return
		}
		//lint:allow nodeterminism dummy generation is wall-clock-driven by design (timeout t_w, SS3.2.2)
		now := time.Now()
		// commitMu makes the stamp-and-send atomic against Execute's
		// stamp → durable-commit → send sequence. Without it a dummy
		// stamped after a primary subtransaction can reach the wire before
		// it, inverting the edge's timestamp order — a race whose window
		// was nanoseconds in-memory but stretches to the whole group-commit
		// fsync once Commit holds commitMu across the log flush.
		e.commitMu.Lock()
		var idle []model.SiteID
		e.tsMu.Lock()
		for _, c := range e.children {
			if now.Sub(e.lastSent[c]) >= e.cfg.Params.DummyPeriod {
				idle = append(idle, c)
				e.lastSent[c] = now
			}
		}
		var tsD ts.Timestamp
		if len(idle) > 0 {
			// A dummy is a primary subtransaction with no updates: it bumps
			// LTSi so every timestamp sent down an edge is strictly larger
			// than its predecessors.
			e.ltsi++
			e.siteTS.Tuples[len(e.siteTS.Tuples)-1].LTS = e.ltsi
			tsD = e.siteTS.Clone()
		}
		e.tsMu.Unlock()
		for _, c := range idle {
			e.cfg.Metrics.Dummy()
			e.obs.dummies.Inc()
			e.traceEvent(trace.DummySent, c, model.TxnID{})
			e.send(comm.Message{
				From: e.id, To: c, Kind: kindSecondary,
				Payload: secondaryPayload{TS: tsD, Dummy: true},
			})
		}
		e.commitMu.Unlock()
	}
}

// epochTicker advances the epoch at source sites with the common period
// (§3.3); the new epoch reaches descendants through the timestamps of
// subsequent (real or dummy) secondary subtransactions.
func (e *dagtEngine) epochTicker() {
	t := time.NewTicker(e.cfg.Params.EpochPeriod)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-e.stop:
			return
		}
		e.tsMu.Lock()
		next := e.siteTS.Epoch + 1
		e.tsMu.Unlock()
		// The advance must be durable before any timestamp bearing it can
		// ship (a dummy may clone the site timestamp immediately after the
		// publish): recovery resumes at the largest durable epoch, and an
		// unlogged advance would let the restarted site send an edge a
		// smaller epoch than it already shipped.
		if e.walAppendSync(wal.Record{Kind: wal.KindEpoch, TS: ts.Timestamp{Epoch: next}}) != nil {
			return // fenced mid-crash: the tick never happened
		}
		// Only this goroutine writes a source's epoch (sources have no
		// parents, so advanceTS never runs here), making the blind store
		// safe.
		e.tsMu.Lock()
		e.siteTS.Epoch = next
		e.tsMu.Unlock()
		e.obs.epochs.Inc()
		e.traceEvent(trace.EpochAdvance, model.NoSite, model.TxnID{})
	}
}

func (e *dagtEngine) Handle(msg comm.Message) {
	if msg.IsResp {
		e.rpc.HandleResponse(msg)
		return
	}
	switch msg.Kind {
	case kindSecondary:
		p := msg.Payload.(secondaryPayload)
		if !p.Dummy {
			// Dummies are heartbeats — losing one to a crash costs nothing,
			// so only real secondaries are made durable before the ack.
			if !e.logReceipt(msg) {
				return // fenced mid-crash: dropped unacknowledged, retransmitted
			}
			e.traceCtx(trace.SecondaryEnqueued, msg.From, msg.Span)
			e.recTransport(msg, msg.Span.TID)
		}
		e.obs.tsDepth.Inc()
		e.prog.Push()
		e.qMu.Lock()
		e.queues[msg.From] = append(e.queues[msg.From], tsItem{p: p, sc: msg.Span, at: e.phaseClock()})
		e.qCond.Broadcast()
		e.qMu.Unlock()
	default:
		panic("core: DAG(T) received unexpected message kind")
	}
}

// nextSecondary blocks until every parent queue is non-empty (or the
// engine stops) and pops the head with the minimum timestamp (§3.2.3).
func (e *dagtEngine) nextSecondary() (tsItem, bool) {
	e.qMu.Lock()
	defer e.qMu.Unlock()
	for {
		if e.stopping() {
			return tsItem{}, false
		}
		ready := true
		var minP model.SiteID
		var minTS ts.Timestamp
		first := true
		for _, par := range e.parents {
			q := e.queues[par]
			if len(q) == 0 {
				ready = false
				break
			}
			if first || q[0].p.TS.Less(minTS) {
				minP, minTS, first = par, q[0].p.TS, false
			}
		}
		if ready {
			it := e.queues[minP][0]
			e.queues[minP] = e.queues[minP][1:]
			e.obs.tsDepth.Dec()
			e.prog.Pop()
			if !it.p.Dummy {
				e.phaseSince(metrics.PhaseQueueWait, minP, it.p.TID, it.at)
			}
			return it, true
		}
		e.qCond.Wait()
	}
}

// scheduler executes secondary subtransactions one at a time in timestamp
// order. On commit the site timestamp becomes TS(Ti)(si, LTSi) and the
// site epoch follows the subtransaction's epoch (§3.2.3, §3.3).
func (e *dagtEngine) scheduler() {
	for {
		it, ok := e.nextSecondary()
		if !ok {
			return
		}
		if it.p.Dummy {
			e.advanceTS(it.p.TS)
			continue
		}
		if !e.applySecondary(it.p, it.sc) {
			return
		}
		e.pendDone()
	}
}

// advanceTS installs the timestamp rule for a committed secondary. In
// steady state the scheduler pops in non-decreasing timestamp order, so
// following the subtransaction's epoch (§3.3) never regresses it; after
// a recovery, though, re-enqueued pre-crash receipts carry epochs below
// the restored MaxEpoch, and letting them roll the site epoch back would
// regress timestamps already shipped down an edge.
func (e *dagtEngine) advanceTS(tsT ts.Timestamp) {
	e.tsMu.Lock()
	nt := tsT.Append(ts.Tuple{Site: e.id, LTS: e.ltsi})
	//lint:allow tscompare scalar epoch max, not a tuple-order comparison
	if nt.Epoch < e.siteTS.Epoch {
		nt.Epoch = e.siteTS.Epoch
	}
	e.siteTS = nt
	e.tsMu.Unlock()
}

func (e *dagtEngine) applySecondary(p secondaryPayload, sc model.SpanContext) bool {
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
		// Arm unconditionally: armDurable is a no-op without a log, and
		// guarding it here would leave Commit undominated by the redo
		// append on the guarded path (waldiscipline).
		e.tsMu.Lock()
		ltsi := e.ltsi
		e.tsMu.Unlock()
		e.armDurable(t, wal.Record{
			Kind: wal.KindApply, TID: p.TID, Role: wal.RoleSecondary,
			Consumes: true, Writes: p.Writes,
			TS: p.TS, LTSI: ltsi, Span: sc,
		})
		err := t.Commit()
		if err == nil {
			e.advanceTS(p.TS)
		}
		e.commitMu.Unlock()
		if err != nil {
			e.recRetry()
			e.retryBackoff()
			continue
		}
		e.noteApplied(p.Writes)
		e.recApplied(sc)
		return true
	}
}
