package core

import (
	"strconv"
	"time"

	"repro/internal/comm"
	"repro/internal/contend"
	"repro/internal/fresh"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// siteObs holds a site's pre-resolved live-metric handles so the hot
// paths never touch the registry. With observation disabled every handle
// is nil, and nil handles are no-ops — the same one-branch discipline as
// the nil trace recorder and nil metrics collector.
type siteObs struct {
	committed   *obs.Counter
	aborted     *obs.Counter
	applied     *obs.Counter
	forwarded   *obs.Counter
	dummies     *obs.Counter
	epochs      *obs.Counter
	remoteReads *obs.Counter
	retries     *obs.Counter
	bePrepares  *obs.Counter
	beCommits   *obs.Counter
	beInquiries *obs.Counter
	// beDecisionErrs counts 2PC rounds whose decision was logged but whose
	// delivery to some participant failed; the participant's inquiry sweep
	// recovers it, and a climbing series here says deliveries are being
	// lost rather than merely delayed.
	beDecisionErrs *obs.Counter
	rpcLate        *obs.Counter

	// abortReasons splits the aborted counter by root cause, one counter
	// per contend.AbortReason, labelled reason=<name>; every recAbort
	// increments exactly one of them (docs/OBSERVABILITY.md, contention
	// observatory).
	abortReasons [contend.NumReasons]*obs.Counter

	// Lock-manager counters (repl_lock_*_total), published from
	// lock.Manager.Stats by flushLockStats when the site halts.
	lockGrants    *obs.Counter
	lockWaits     *obs.Counter
	lockWounds    *obs.Counter
	lockTimeouts  *obs.Counter
	lockDeadlocks *obs.Counter

	// Queue-depth gauges: the DAG(WT)/BackEdge FIFO applier queue, the
	// DAG(T) timestamp-hold queues, the BackEdge origins parked on their
	// backedge round-trip, and the PSL remote-read service queue.
	fifoDepth  *obs.Gauge
	tsDepth    *obs.Gauge
	eagerDepth *obs.Gauge
	readsDepth *obs.Gauge

	// Freshness observatory handles (docs/OBSERVABILITY.md): every read
	// issues a certificate (reads = readsFresh + readsStale, the coverage
	// identity the freshness smoke checks), stale ones also accumulate how
	// many versions behind they were and a time-behind histogram; the
	// repl_fresh_* pair mirrors the tracker's commit/apply bookkeeping so a
	// scrape can see propagation progress without the tracker.
	reads         *obs.Counter
	readsFresh    *obs.Counter
	readsStale    *obs.Counter
	staleVersions *obs.Counter
	readBehind    *obs.Histogram
	freshCommits  *obs.Counter
	freshApplies  *obs.Counter
}

func newSiteObs(r *obs.Registry, id model.SiteID) siteObs {
	if r == nil {
		return siteObs{}
	}
	site := obs.Label{Key: "site", Value: strconv.Itoa(int(id))}
	queue := func(q string) *obs.Gauge {
		return r.Gauge("repl_queue_depth", site, obs.Label{Key: "queue", Value: q})
	}
	so := siteObs{
		committed:      r.Counter("repl_txn_committed_total", site),
		aborted:        r.Counter("repl_txn_aborted_total", site),
		applied:        r.Counter("repl_secondary_applied_total", site),
		forwarded:      r.Counter("repl_secondary_forwarded_total", site),
		dummies:        r.Counter("repl_dummy_sent_total", site),
		epochs:         r.Counter("repl_epoch_advances_total", site),
		remoteReads:    r.Counter("repl_remote_reads_total", site),
		retries:        r.Counter("repl_secondary_retries_total", site),
		bePrepares:     r.Counter("repl_backedge_prepares_total", site),
		beCommits:      r.Counter("repl_backedge_commits_total", site),
		beInquiries:    r.Counter("repl_backedge_inquiries_total", site),
		beDecisionErrs: r.Counter("repl_backedge_decision_errors_total", site),
		rpcLate:        r.Counter("repl_rpc_late_responses_total", site),
		fifoDepth:      queue("fifo"),
		tsDepth:        queue("ts"),
		eagerDepth:     queue("eager"),
		readsDepth:     queue("reads"),
		lockGrants:     r.Counter("repl_lock_grants_total", site),
		lockWaits:      r.Counter("repl_lock_waits_total", site),
		lockWounds:     r.Counter("repl_lock_wounds_total", site),
		lockTimeouts:   r.Counter("repl_lock_timeouts_total", site),
		lockDeadlocks:  r.Counter("repl_lock_deadlocks_total", site),
		reads:          r.Counter("repl_txn_reads_total", site),
		readsFresh:     r.Counter("repl_read_staleness_fresh_total", site),
		readsStale:     r.Counter("repl_read_staleness_stale_total", site),
		staleVersions:  r.Counter("repl_read_staleness_versions_total", site),
		readBehind:     r.Histogram("repl_read_staleness_behind", site),
		freshCommits:   r.Counter("repl_fresh_commits_total", site),
		freshApplies:   r.Counter("repl_fresh_applies_total", site),
	}
	for _, reason := range contend.Reasons() {
		so.abortReasons[reason] = r.Counter("repl_txn_abort_reason_total",
			site, obs.Label{Key: "reason", Value: reason.String()})
	}
	return so
}

// AbortReasons returns the site's cumulative abort root-cause breakdown,
// reason name → count, zero-count reasons omitted. Backed by the
// per-reason obs counters, so it is empty when observation is disabled.
func (b *base) AbortReasons() map[string]uint64 {
	out := make(map[string]uint64)
	for _, reason := range contend.Reasons() {
		if n := b.obs.abortReasons[reason].Value(); n > 0 {
			out[reason.String()] = n
		}
	}
	return out
}

// flushLockStats publishes the lock manager's cumulative counters into the
// live registry. Called once, when the site halts, so the cumulative
// values ARE the deltas; reading Stats per grant would put a second mutex
// acquisition on the lock hot path for numbers nobody scrapes mid-run.
func (b *base) flushLockStats() {
	s := b.locks.Stats()
	b.obs.lockGrants.Add(s.Acquired)
	b.obs.lockWaits.Add(s.Waited)
	b.obs.lockWounds.Add(s.Wounds)
	b.obs.lockTimeouts.Add(s.Timeouts)
	b.obs.lockDeadlocks.Add(s.Deadlocks)
}

// traceEvent records one lifecycle event tagged with this site and
// protocol; with tracing disabled the call is one branch, no allocation.
func (b *base) traceEvent(k trace.Kind, peer model.SiteID, tid model.TxnID) {
	b.cfg.Trace.Record(k, b.id, peer, tid, uint8(b.proto))
}

// traceCtx records one lifecycle event under this site's span within the
// causal context sc: the event's span is the local work, its parent the
// sending site's span (zero at the origin, rooting the tree).
func (b *base) traceCtx(k trace.Kind, peer model.SiteID, sc model.SpanContext) {
	if b.cfg.Trace == nil {
		return
	}
	b.cfg.Trace.RecordSpan(k, b.id, peer, sc.TID, uint8(b.proto), sc.SpanAt(b.id), sc.Parent)
}

// tracing reports whether events are being recorded; call sites that
// would pay extra work just to build an event (e.g. a payload type
// assertion) gate on it.
func (b *base) tracing() bool { return b.cfg.Trace != nil }

// recCommit folds the bookkeeping for a committed primary
// subtransaction: run collector, live registry. (The TxnCommit trace
// event is recorded separately, inside the commit critical section, so
// it is ordered before the transaction's forward events.)
func (b *base) recCommit(start time.Time) {
	//lint:allow nodeterminism latency observation only; the measured duration never branches protocol logic
	b.cfg.Metrics.TxnCommitted(time.Since(start))
	b.obs.committed.Inc()
}

// recAbort folds the bookkeeping for an aborted primary subtransaction.
// Aborts happen at the origin, so the event sits on the root span. Every
// abort carries its root cause: the reason both tags the TxnAbort trace
// event and selects the per-reason counter, so no engine can abort
// without classifying (the compiler enforces what a convention could
// not).
func (b *base) recAbort(tid model.TxnID, reason contend.AbortReason) {
	b.cfg.Metrics.TxnAborted()
	b.obs.aborted.Inc()
	b.obs.abortReasons[reason].Inc()
	if b.cfg.Trace != nil {
		sc := model.SpanContext{TID: tid}
		b.cfg.Trace.RecordTag(trace.TxnAbort, b.id, model.NoSite, tid,
			uint8(b.proto), sc.SpanAt(b.id), sc.Parent, reason.String())
	}
}

// recApplied folds the bookkeeping for a committed secondary
// subtransaction, attributed to this site's span within sc; sc's origin
// commit stamp becomes the run's propagation-delay sample.
func (b *base) recApplied(sc model.SpanContext) {
	b.cfg.Metrics.SecondaryApplied(sc.Committed)
	b.obs.applied.Inc()
	b.traceCtx(trace.SecondaryApplied, model.NoSite, sc)
}

// recRetry folds the bookkeeping for a secondary resubmission.
func (b *base) recRetry() {
	b.cfg.Metrics.Retry()
	b.obs.retries.Inc()
}

// Phase-level latency attribution (docs/BENCHMARKING.md). All clock reads
// for it are confined to the three helpers below so the nodeterminism
// allowances live in one place; engines deal only in opaque stamps.

// phaseClock returns the current time when phase attribution has a sink
// (a metrics collector or a trace recorder), and the zero time otherwise,
// keeping disabled hot paths clock-free.
func (b *base) phaseClock() time.Time {
	if b.cfg.Metrics == nil && b.cfg.Trace == nil {
		return time.Time{}
	}
	//lint:allow nodeterminism latency observation only; the measured duration never branches protocol logic
	return time.Now()
}

// recPhase attributes a latency segment to phase p: one sample in the run
// collector plus, when tracing, a PhaseLatency trace event.
func (b *base) recPhase(p metrics.Phase, peer model.SiteID, tid model.TxnID, d time.Duration) {
	b.cfg.Metrics.PhaseSample(p, d)
	b.cfg.Trace.RecordPhase(b.id, peer, tid, uint8(b.proto), p.String(), d)
}

// phaseSince closes a phase segment opened at a phaseClock stamp; the
// zero stamp means attribution is off and the call is one branch.
func (b *base) phaseSince(p metrics.Phase, peer model.SiteID, tid model.TxnID, start time.Time) {
	if start.IsZero() {
		return
	}
	//lint:allow nodeterminism latency observation only; the measured duration never branches protocol logic
	b.recPhase(p, peer, tid, time.Since(start))
}

// recTransport turns a stamped incoming message into a transport-phase
// sample (one-way send-to-receipt time); unstamped messages — RPC round
// trips, which are attributed as whole vote/decision/remote-read phases —
// are ignored.
func (b *base) recTransport(msg comm.Message, tid model.TxnID) {
	b.phaseSince(metrics.PhaseTransport, msg.From, tid, msg.SentAt)
}

// Freshness observatory hooks (docs/OBSERVABILITY.md). Like the phase
// helpers, these keep every disabled hot path down to one nil check; the
// wall-clock reads live inside internal/fresh, outside the deterministic
// core — the engines pass only item ids and version numbers.

// noteCommitted mirrors a committed primary's writes into the freshness
// tracker. Engines call it inside the commit critical section,
// immediately after Txn.Commit installed the writes, so the tracker's
// latest version for each item equals the storage version number this
// commit minted.
func (b *base) noteCommitted(writes []model.WriteOp) {
	if b.cfg.Fresh == nil || len(writes) == 0 {
		return
	}
	for _, w := range writes {
		b.cfg.Fresh.NoteCommit(w.Item)
	}
	b.obs.freshCommits.Add(uint64(len(writes)))
}

// noteApplied advances the tracker's per-(item, site) applied counters
// for a propagated update installed at this secondary, sampling the
// replica's version and time lag. Writes without a local copy are
// skipped, mirroring the appliers' own store.Has filter, so the applied
// counter only advances for versions this site actually installed.
func (b *base) noteApplied(writes []model.WriteOp) {
	if b.cfg.Fresh == nil || len(writes) == 0 {
		return
	}
	n := uint64(0)
	for _, w := range writes {
		if !b.store.Has(w.Item) {
			continue
		}
		b.cfg.Fresh.NoteApply(b.id, w.Item)
		n++
	}
	if n > 0 {
		b.obs.freshApplies.Add(n)
	}
}

// certifyRead records a read-freshness certificate for a read that
// observed the given storage version of item at this site; fromStore is
// false for reads served from the transaction's own write buffer, which
// are certified fresh (the value is newer than anything committed). The
// reads counter bumps BEFORE the tracker check, so certificate coverage
// (certificates ÷ reads) is a measured ratio, not an identity: an engine
// read path that forgets to certify shows up as coverage < 100%.
func (b *base) certifyRead(tid model.TxnID, item model.ItemID, version uint64, fromStore bool) {
	b.obs.reads.Inc()
	f := b.cfg.Fresh
	if f == nil {
		return
	}
	var c fresh.Cert
	if fromStore {
		c = f.CertifyRead(b.id, item, version)
	} else {
		c = f.CertifyFresh(b.id)
	}
	b.recCert(tid, c)
}

// certifyPrimaryRead certifies a read that observed the primary copy
// itself (PSL's local primary reads and remote-read replies): zero
// staleness by construction, counted so certificate coverage stays
// total.
func (b *base) certifyPrimaryRead(tid model.TxnID) {
	b.obs.reads.Inc()
	f := b.cfg.Fresh
	if f == nil {
		return
	}
	b.recCert(tid, f.CertifyFresh(b.id))
}

// recCert folds one certificate into the live registry and, when
// tracing, a span-less ReadCertificate event tagged fresh/stale with the
// time behind as its duration. Span-less because whether a particular
// read catches the latest version races propagation timing — hanging
// certificates off spans would make same-seed span trees diverge.
func (b *base) recCert(tid model.TxnID, c fresh.Cert) {
	tag := "fresh"
	if c.Stale() {
		tag = "stale"
		b.obs.readsStale.Inc()
		b.obs.staleVersions.Add(c.Versions)
		b.obs.readBehind.Observe(c.Behind)
	} else {
		b.obs.readsFresh.Inc()
	}
	b.cfg.Trace.RecordTagDur(trace.ReadCertificate, b.id, model.NoSite, tid, uint8(b.proto), tag, c.Behind)
}
