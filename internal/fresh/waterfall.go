package fresh

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/hist"
	"repro/internal/model"
	"repro/internal/trace"
)

// SegmentNames are the per-hop segments a propagation waterfall
// attributes commit→apply delay to, in causal order:
//
//	enqueue    commit (or receipt at a relay) → the update leaves the site
//	wire       sender's forward → receiver's queue (transport)
//	queue_wait sitting in the receiver's service queue
//	lock_wait  the applier blocked in the receiver's lock manager
//	apply      installing the writes into the receiver's storage
//
// The names are part of the canonical freshness summary, so they must
// stay stable.
var SegmentNames = []string{"enqueue", "wire", "queue_wait", "lock_wait", "apply"}

// Segment is one named hop segment's latency distribution in µs.
type Segment struct {
	Name string `json:"name"`
	US   Dist   `json:"us"`
}

// Waterfall aggregates the propagation waterfalls of one (protocol,
// edge): every joined commit's delay at the edge's receiver, attributed
// to per-hop segments with bounded-histogram percentiles.
type Waterfall struct {
	Proto uint8 `json:"proto"`
	// Protocol is the display name; BuildWaterfalls leaves it empty (the
	// proto byte → name mapping lives in internal/core, which this
	// package must not import) and callers fill it in.
	Protocol string       `json:"protocol,omitempty"`
	From     model.SiteID `json:"from"`
	To       model.SiteID `json:"to"`
	// Count is the number of commits joined across the edge (forward and
	// matching receipt both present in the trace).
	Count    uint64    `json:"count"`
	Segments []Segment `json:"segments"`
}

// wfKey identifies one aggregation bucket.
type wfKey struct {
	proto    uint8
	from, to model.SiteID
}

// wfAgg accumulates one bucket's per-segment histograms.
type wfAgg struct {
	count uint64
	segs  [5]hist.Histogram // indexed like SegmentNames
}

// siteTID keys per-(transaction, site) lookups.
type siteTID struct {
	tid  model.TxnID
	site model.SiteID
}

// BuildWaterfalls joins a recorded trace into propagation waterfalls: it
// matches each commit's SecondaryForwarded/SecondaryEnqueued pairs into
// edges and attributes the receiver-side remainder using the span-less
// PhaseLatency events the engines already emit (queue_wait, lock_wait,
// apply, keyed by transaction and site). Works on any JSONL trace —
// live recorder snapshot, replbench -trace output, or a flight dump.
func BuildWaterfalls(events []trace.Event) []*Waterfall {
	committedAt := make(map[model.TxnID]int64)
	commitSite := make(map[model.TxnID]model.SiteID)
	enqueuedAt := make(map[siteTID]int64)
	phaseSum := make(map[siteTID][3]int64) // queue_wait, lock_wait, apply
	for _, ev := range events {
		switch ev.Kind {
		case trace.TxnCommit:
			if _, ok := committedAt[ev.TID]; !ok {
				committedAt[ev.TID] = ev.T
				commitSite[ev.TID] = ev.Site
			}
		case trace.SecondaryEnqueued:
			key := siteTID{ev.TID, ev.Site}
			if _, ok := enqueuedAt[key]; !ok {
				enqueuedAt[key] = ev.T
			}
		case trace.PhaseLatency:
			var idx int
			switch ev.Phase {
			case "queue_wait":
				idx = 0
			case "lock_wait":
				idx = 1
			case "apply":
				idx = 2
			default:
				continue
			}
			key := siteTID{ev.TID, ev.Site}
			s := phaseSum[key]
			s[idx] += ev.Dur
			phaseSum[key] = s
		}
	}

	aggs := make(map[wfKey]*wfAgg)
	for _, ev := range events {
		if ev.Kind != trace.SecondaryForwarded || ev.Peer == model.NoSite {
			continue
		}
		recvKey := siteTID{ev.TID, ev.Peer}
		recvT, joined := enqueuedAt[recvKey]
		if !joined {
			continue // dropped, still in flight, or truncated trace
		}
		key := wfKey{proto: ev.Proto, from: ev.Site, to: ev.Peer}
		a := aggs[key]
		if a == nil {
			a = &wfAgg{}
			aggs[key] = a
		}
		a.count++

		// enqueue: from the commit (at the origin) or the local receipt
		// (at a relay) to the moment the forward left.
		start, haveStart := committedAt[ev.TID], false
		if commitSite[ev.TID] == ev.Site {
			_, haveStart = committedAt[ev.TID]
		} else if t, ok := enqueuedAt[siteTID{ev.TID, ev.Site}]; ok {
			start, haveStart = t, true
		}
		if haveStart {
			a.segs[0].Record(clampNStoUS(ev.T - start))
		}
		a.segs[1].Record(clampNStoUS(recvT - ev.T)) // wire
		sums := phaseSum[recvKey]
		a.segs[2].Record(clampNStoUS(sums[0])) // queue_wait
		a.segs[3].Record(clampNStoUS(sums[1])) // lock_wait
		a.segs[4].Record(clampNStoUS(sums[2])) // apply
	}

	out := make([]*Waterfall, 0, len(aggs))
	for key, a := range aggs {
		wf := &Waterfall{Proto: key.proto, From: key.from, To: key.to, Count: a.count}
		for i, name := range SegmentNames {
			wf.Segments = append(wf.Segments, Segment{Name: name, US: dist(&a.segs[i])})
		}
		out = append(out, wf)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Proto != b.Proto {
			return a.Proto < b.Proto
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

// FormatWaterfalls renders waterfalls as fixed-width table lines (header
// first), one row per edge with each segment's p95.
func FormatWaterfalls(wfs []*Waterfall) []string {
	if len(wfs) == 0 {
		return nil
	}
	lines := []string{fmt.Sprintf("%-10s %-10s %7s %12s %12s %12s %12s %12s",
		"protocol", "edge", "joined", "enqueue", "wire", "queue_wait", "lock_wait", "apply")}
	for _, wf := range wfs {
		name := wf.Protocol
		if name == "" {
			name = fmt.Sprintf("proto(%d)", wf.Proto)
		}
		row := fmt.Sprintf("%-10s s%d->s%-4d %7d", name, wf.From, wf.To, wf.Count)
		for _, seg := range wf.Segments {
			row += fmt.Sprintf(" %12s", usString(seg.US.P95))
		}
		lines = append(lines, row)
	}
	return lines
}

func usString(us uint64) string {
	return (time.Duration(us) * time.Microsecond).Round(time.Microsecond).String()
}

func clampNStoUS(ns int64) uint64 {
	if ns <= 0 {
		return 0
	}
	return uint64(ns / int64(time.Microsecond))
}
