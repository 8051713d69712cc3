package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/model"
	"repro/internal/trace"
)

// phaseDist collects the recorder's PhaseLatency durations (µs) in the
// measured window, per phase name.
func phaseDist(events []trace.Event, fromNS int64) map[string][]float64 {
	out := map[string][]float64{}
	for _, ev := range events {
		if ev.Kind == trace.PhaseLatency && ev.T >= fromNS {
			out[ev.Phase] = append(out[ev.Phase], float64(ev.Dur)/1e3)
		}
	}
	for k, v := range out {
		out[k] = sorted(v)
	}
	return out
}

// executeChildren are the phases the recorder attributes inside a
// transaction's Execute call.
var executeChildren = map[string]bool{"lock_wait": true, "apply": true, "2pc_vote": true, "2pc_decision": true}

var twopcPhases = map[string]bool{"2pc_vote": true, "2pc_decision": true}

// txnWindow is one transaction at its origin, from its TxnBegin to its
// TxnCommit or TxnAbort, on the recorder's clock.
type txnWindow struct {
	tid        model.TxnID
	begin, end int64
}

// originWindows returns, per origin site, the windows of the
// transactions that both began and ended in events, sorted by begin.
func originWindows(events []trace.Event) map[model.SiteID][]txnWindow {
	begins := map[model.TxnID]int64{}
	for _, ev := range events {
		if ev.Kind == trace.TxnBegin && ev.Site == ev.TID.Site {
			begins[ev.TID] = ev.T
		}
	}
	out := map[model.SiteID][]txnWindow{}
	for _, ev := range events {
		if (ev.Kind == trace.TxnCommit || ev.Kind == trace.TxnAbort) && ev.Site == ev.TID.Site {
			if b, ok := begins[ev.TID]; ok {
				out[ev.Site] = append(out[ev.Site], txnWindow{tid: ev.TID, begin: b, end: ev.T})
			}
		}
	}
	for _, ws := range out {
		sort.Slice(ws, func(i, j int) bool { return ws[i].begin < ws[j].begin })
	}
	return out
}

// pairSpans pairs one site's Execute spans (tracer's clock) with its
// transaction windows (recorder's clock, behind by at most skew), each
// Execute call being one transaction. A window is a candidate for a span
// when it begins and ends inside it. The site's clients run at once, so
// a long span can also hold another client's whole transaction; the
// pairing therefore fixes a span with exactly one candidate left and
// takes that window from the others, until nothing changes. It returns
// each span's window index, or -1 where the pairing stays ambiguous.
func pairSpans(spans []interval, wins []txnWindow, skew int64) []int {
	cands := make([][]int, len(spans))
	for s, sp := range spans {
		first := sort.Search(len(wins), func(i int) bool { return wins[i].begin+skew >= sp.start })
		for w := first; w < len(wins) && wins[w].begin <= sp.end; w++ {
			if wins[w].end <= sp.end {
				cands[s] = append(cands[s], w)
			}
		}
	}
	pair := make([]int, len(spans))
	for s := range pair {
		pair[s] = -1
	}
	taken := make([]bool, len(wins))
	for changed := true; changed; {
		changed = false
		for s, cs := range cands {
			if pair[s] >= 0 {
				continue
			}
			live, n := -1, 0
			for _, w := range cs {
				if !taken[w] {
					live, n = w, n+1
				}
			}
			if n == 1 {
				pair[s], taken[live], changed = live, true, true
			}
		}
	}
	return pair
}

// selfTimes pairs every Execute span with its transaction and returns
// the Execute self times (µs: span time not covered by the transaction's
// lock waits, applies and 2PC rounds), the share of update Execute time
// covered by 2PC rounds, and how many spans could not be paired. Paired
// spans are tagged with their transaction id. skew is how far the
// recorder's clock may lag the spans'.
func selfTimes(spans []span, events []trace.Event, skew int64) (selfUS []float64, twopcPct float64, unmatched int) {
	wins := originWindows(events)
	children := map[model.TxnID][]trace.Event{}
	for _, ev := range events {
		if ev.Kind == trace.PhaseLatency && executeChildren[ev.Phase] {
			children[ev.TID] = append(children[ev.TID], ev)
		}
	}
	bySite := map[model.SiteID][]int{}
	for i, s := range spans {
		if s.Name == "Execute" {
			bySite[model.SiteID(s.Site)] = append(bySite[model.SiteID(s.Site)], i)
		}
	}
	var updTotal, upd2PC int64
	for site, idx := range bySite {
		ivs := make([]interval, len(idx))
		for k, i := range idx {
			ivs[k] = interval{spans[i].Start, spans[i].End}
		}
		pair := pairSpans(ivs, wins[site], skew)
		for k, i := range idx {
			if pair[k] < 0 {
				unmatched++
				continue
			}
			sp := &spans[i]
			tid := wins[site][pair[k]].tid
			sp.TID = fmt.Sprintf("s%d#%d", tid.Site, tid.Seq)
			parent := ivs[k]
			var all, eager []interval
			for _, ev := range children[tid] {
				iv := interval{ev.T - ev.Dur, ev.T}
				all = append(all, iv)
				if twopcPhases[ev.Phase] {
					eager = append(eager, iv)
				}
			}
			selfUS = append(selfUS, float64(selfTime(parent, all))/1e3)
			if sp.Kind == "update" {
				d := parent.end - parent.start
				updTotal += d
				upd2PC += d - selfTime(parent, eager)
			}
		}
	}
	return sorted(selfUS), pct(float64(upd2PC), float64(updTotal)), unmatched
}

// writeTrace writes the benchmark's spans, then the recorder's events,
// as gzip-compressed JSON lines.
func writeTrace(path string, spans []span, events []trace.Event) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(zw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Span span `json:"span"`
		}{s}); err != nil {
			return err
		}
	}
	if err := trace.WriteJSONL(zw, events); err != nil {
		return err
	}
	return zw.Close()
}
