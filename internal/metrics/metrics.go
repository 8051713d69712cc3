// Package metrics collects the performance measures of §5.3: average
// per-site throughput of primary subtransactions, abort rate, response
// times (§5.3.4), and update-propagation delay (§5.3.4), plus message
// counters used to explain the PSL-vs-BackEdge communication trade-off.
package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// Phase identifies one segment of a transaction's lifetime for latency
// attribution. A response time decomposes into where it was spent: waiting
// for locks, applying writes to storage, sitting in a propagation queue,
// crossing the transport, or blocked on a 2PC round trip.
type Phase uint8

const (
	// PhaseLockWait is time blocked in the lock manager (Acquire/AcquireEx).
	PhaseLockWait Phase = iota
	// PhaseApply is time installing buffered writes into storage at commit.
	PhaseApply
	// PhaseQueueWait is time a propagated update sat in a secondary's
	// service queue before an applier picked it up.
	PhaseQueueWait
	// PhaseTransport is one-way network time of a propagation message,
	// measured from the sender's stamp to receipt.
	PhaseTransport
	// PhaseVote is the 2PC prepare round trip seen by a BackEdge
	// coordinator per participant.
	PhaseVote
	// PhaseDecision is the 2PC decision delivery round trip per
	// participant.
	PhaseDecision

	numPhases // sentinel; keep last
)

var phaseNames = [numPhases]string{
	PhaseLockWait:  "lock_wait",
	PhaseApply:     "apply",
	PhaseQueueWait: "queue_wait",
	PhaseTransport: "transport",
	PhaseVote:      "2pc_vote",
	PhaseDecision:  "2pc_decision",
}

// String returns the stable snake_case name used as the Report.Phases map
// key and in trace events.
func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Phases lists every registered phase in declaration order. The lint
// analyzer obscomplete cross-references this registry against engine
// recording sites.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Collector accumulates one run's measurements. All methods are safe for
// concurrent use; a nil *Collector is a valid no-op sink.
//
// Its memory does not grow with run length: every latency distribution
// is a hist.Histogram (bounded relative error, storage only for the
// magnitudes reached), and propagation delay needs no per-transaction
// state because the origin's commit time travels with the update
// (model.SpanContext.Committed) to the applying site.
type Collector struct {
	start atomic.Int64 // unix nanos
	end   atomic.Int64

	committed atomic.Uint64
	aborted   atomic.Uint64

	messages    atomic.Uint64
	remoteReads atomic.Uint64
	secondaries atomic.Uint64
	dummies     atomic.Uint64
	retries     atomic.Uint64 // secondary subtransaction re-submissions

	trackProp bool

	mu     sync.Mutex
	resp   hist.Histogram // nanoseconds, like every distribution here
	prop   hist.Histogram
	phases [numPhases]hist.Histogram
}

// record adds a duration sample to h, clamping negatives to zero.
func record(h *hist.Histogram, d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// summarize reports h as the exact count, total, mean and max plus
// p50/p95/p99 estimates.
func summarize(h *hist.Histogram) PhaseStats {
	ps := PhaseStats{
		Count: h.Count(),
		Total: time.Duration(h.Sum()),
		P50:   time.Duration(h.Quantile(0.50)),
		P95:   time.Duration(h.Quantile(0.95)),
		P99:   time.Duration(h.Quantile(0.99)),
		Max:   time.Duration(h.Max()),
	}
	if ps.Count > 0 {
		ps.Mean = ps.Total / time.Duration(ps.Count)
	}
	return ps
}

// NewCollector returns a collector. If trackPropagation is true, replica
// applications carrying their origin's commit stamp become
// propagation-delay samples (E7).
func NewCollector(trackPropagation bool) *Collector {
	return &Collector{trackProp: trackPropagation}
}

// Begin marks the start of the measured interval.
func (c *Collector) Begin() {
	if c == nil {
		return
	}
	c.start.Store(time.Now().UnixNano())
}

// End marks the end of the measured interval.
func (c *Collector) End() {
	if c == nil {
		return
	}
	c.end.Store(time.Now().UnixNano())
}

// TxnCommitted records a committed primary subtransaction and its
// response time.
func (c *Collector) TxnCommitted(resp time.Duration) {
	if c == nil {
		return
	}
	c.committed.Add(1)
	c.mu.Lock()
	record(&c.resp, resp)
	c.mu.Unlock()
}

// TxnAborted records an aborted primary subtransaction.
func (c *Collector) TxnAborted() {
	if c == nil {
		return
	}
	c.aborted.Add(1)
}

// SecondaryApplied records a committed secondary subtransaction whose
// primary committed at committed (the origin's stamp, carried in the
// update's span context). When tracking is enabled the elapsed time
// since that stamp becomes a propagation-delay sample; a zero stamp —
// an update forwarded without observation, or re-forwarded from a redo
// log written before the commit — counts the apply but yields no sample.
func (c *Collector) SecondaryApplied(committed time.Time) {
	if c == nil {
		return
	}
	c.secondaries.Add(1)
	if !c.trackProp || committed.IsZero() {
		return
	}
	d := time.Since(committed)
	c.mu.Lock()
	record(&c.prop, d)
	c.mu.Unlock()
}

// PhaseSample records one latency-attribution sample for phase p.
// Unknown phases are dropped rather than panicking so wire-derived values
// stay safe.
func (c *Collector) PhaseSample(p Phase, d time.Duration) {
	if c == nil || p >= numPhases {
		return
	}
	c.mu.Lock()
	record(&c.phases[p], d)
	c.mu.Unlock()
}

// MsgSent counts protocol messages.
func (c *Collector) MsgSent(n int) {
	if c == nil {
		return
	}
	c.messages.Add(uint64(n))
}

// RemoteRead counts a PSL remote read.
func (c *Collector) RemoteRead() {
	if c == nil {
		return
	}
	c.remoteReads.Add(1)
}

// Dummy counts a DAG(T) dummy subtransaction.
func (c *Collector) Dummy() {
	if c == nil {
		return
	}
	c.dummies.Add(1)
}

// Retry counts a secondary subtransaction resubmission after a local
// deadlock timeout (§2).
func (c *Collector) Retry() {
	if c == nil {
		return
	}
	c.retries.Add(1)
}

// PhaseStats summarizes one phase's latency-attribution samples over the
// whole run: Count, Total, Mean and Max are exact, and P50/P95/P99 are
// within 1% of the exact nearest-rank percentile (internal/hist).
type PhaseStats struct {
	Count uint64
	Total time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Report is an immutable summary of a run.
//
// The exported field names are a compatibility contract: Report.JSON uses
// the default encoder, so renaming a field breaks every consumer of
// replbench output. Additions are fine; renames and removals are not
// (pinned by TestReportJSONFieldNamesFrozen).
type Report struct {
	Elapsed time.Duration

	Committed uint64
	Aborted   uint64

	// ThroughputPerSite is the paper's "average throughput": committed
	// primary subtransactions per second, averaged over the sites.
	ThroughputPerSite float64
	// AbortRate is the percentage of primary subtransactions that
	// aborted.
	AbortRate float64

	MeanResponse, P50Response, P95Response, MaxResponse time.Duration
	MeanPropDelay, P95PropDelay, MaxPropDelay           time.Duration

	// P99Response tails the response distribution; added alongside the
	// phase breakdown (omitted from String to keep the one-liner short).
	P99Response time.Duration

	Messages    uint64
	RemoteReads uint64
	Secondaries uint64
	Dummies     uint64
	Retries     uint64

	// Phases maps phase name (Phase.String) to its latency breakdown.
	// Only phases that recorded at least one sample appear, so protocols
	// without a 2PC leg simply lack those keys.
	Phases map[string]PhaseStats `json:",omitempty"`
}

// Snapshot computes the report for a run over m sites. Call End first (or
// Snapshot uses the current time).
func (c *Collector) Snapshot(m int) Report {
	if c == nil {
		return Report{}
	}
	endNs := c.end.Load()
	if endNs == 0 {
		endNs = time.Now().UnixNano()
	}
	elapsed := time.Duration(endNs - c.start.Load())
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	committed := c.committed.Load()
	aborted := c.aborted.Load()
	resp, prop := summarize(&c.resp), summarize(&c.prop)
	r := Report{
		Elapsed:       elapsed,
		Committed:     committed,
		Aborted:       aborted,
		MeanResponse:  resp.Mean,
		P50Response:   resp.P50,
		P95Response:   resp.P95,
		P99Response:   resp.P99,
		MaxResponse:   resp.Max,
		MeanPropDelay: prop.Mean,
		P95PropDelay:  prop.P95,
		MaxPropDelay:  prop.Max,
		Messages:      c.messages.Load(),
		RemoteReads:   c.remoteReads.Load(),
		Secondaries:   c.secondaries.Load(),
		Dummies:       c.dummies.Load(),
		Retries:       c.retries.Load(),
	}
	if m > 0 {
		r.ThroughputPerSite = float64(committed) / elapsed.Seconds() / float64(m)
	}
	if committed+aborted > 0 {
		r.AbortRate = 100 * float64(aborted) / float64(committed+aborted)
	}
	for i := range c.phases {
		h := &c.phases[i]
		if h.Count() == 0 {
			continue
		}
		if r.Phases == nil {
			r.Phases = make(map[string]PhaseStats)
		}
		r.Phases[Phase(i).String()] = summarize(h)
	}
	return r
}

// JSON renders the report as machine-readable JSON (durations in
// nanoseconds, the encoding/json default for time.Duration), for tooling
// that consumes replbench output.
func (r Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

func (r Report) String() string {
	return fmt.Sprintf(
		"thr/site=%.2f tps  aborts=%.1f%%  resp(mean/p95)=%s/%s  prop(mean/max)=%s/%s  msgs=%d remoteReads=%d secondaries=%d",
		r.ThroughputPerSite, r.AbortRate,
		r.MeanResponse.Round(time.Microsecond), r.P95Response.Round(time.Microsecond),
		r.MeanPropDelay.Round(time.Microsecond), r.MaxPropDelay.Round(time.Microsecond),
		r.Messages, r.RemoteReads, r.Secondaries)
}
