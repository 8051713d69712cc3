package main

import (
	"math"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

func TestPairSpansInterleavedStarts(t *testing.T) {
	// B's client calls Execute after A's but its transaction begins
	// first; pairing by start order would give A B's transaction.
	spans := []interval{{100, 200}, {105, 300}}
	wins := []txnWindow{
		{tid: model.TxnID{Seq: 2}, begin: 106, end: 290},
		{tid: model.TxnID{Seq: 1}, begin: 110, end: 190},
	}
	if got, want := pairSpans(spans, wins, 0), []int{1, 0}; !slices.Equal(got, want) {
		t.Errorf("pairSpans = %v, want %v", got, want)
	}
}

func TestPairSpansAmbiguousLeftUnpaired(t *testing.T) {
	// Two spans that each hold both transactions cannot be told apart.
	spans := []interval{{100, 300}, {101, 301}}
	wins := []txnWindow{{begin: 110, end: 120}, {begin: 130, end: 140}}
	if got, want := pairSpans(spans, wins, 0), []int{-1, -1}; !slices.Equal(got, want) {
		t.Errorf("pairSpans = %v, want %v", got, want)
	}
}

func TestPairSpansSkew(t *testing.T) {
	// The recorder's clock lags the spans' by up to skew, so a begin read
	// 1 ns before the span starts still lies inside it.
	spans := []interval{{100, 200}}
	wins := []txnWindow{{begin: 99, end: 150}}
	if got := pairSpans(spans, wins, 2); got[0] != 0 {
		t.Errorf("with skew 2: pairSpans = %v, want [0]", got)
	}
	if got := pairSpans(spans, wins, 0); got[0] != -1 {
		t.Errorf("with skew 0: pairSpans = %v, want [-1]", got)
	}
}

func TestSelfTimesUseThePairedTransaction(t *testing.T) {
	a, b := model.TxnID{Site: 0, Seq: 1}, model.TxnID{Site: 0, Seq: 2}
	spans := []span{
		{Name: "Execute", Site: 0, Kind: "read", Start: 100, End: 200},
		{Name: "Execute", Site: 0, Kind: "update", Start: 105, End: 300},
	}
	events := []trace.Event{
		{T: 106, Kind: trace.TxnBegin, TID: b},
		{T: 110, Kind: trace.TxnBegin, TID: a},
		{T: 190, Kind: trace.TxnCommit, TID: a},
		// b waits on a lock from 150 to 250, while a runs.
		{T: 250, Kind: trace.PhaseLatency, TID: b, Phase: "lock_wait", Dur: 100},
		{T: 280, Kind: trace.PhaseLatency, TID: b, Phase: "2pc_vote", Dur: 20},
		{T: 290, Kind: trace.TxnCommit, TID: b},
	}
	self, twopc, unmatched := selfTimes(spans, events, 0)
	if unmatched != 0 {
		t.Fatalf("%d spans unmatched", unmatched)
	}
	// a: 100 ns with no children; b: 195 ns minus 100 of lock wait and 20
	// of 2PC.
	if want := []float64{0.075, 0.1}; !slices.Equal(self, want) {
		t.Errorf("self times = %v µs, want %v", self, want)
	}
	if want := 100 * 20.0 / 195; math.Abs(twopc-want) > 1e-9 {
		t.Errorf("2PC share = %v%%, want %v%%", twopc, want)
	}
	if spans[0].TID != "s0#1" || spans[1].TID != "s0#2" {
		t.Errorf("spans tagged %q and %q, want s0#1 and s0#2", spans[0].TID, spans[1].TID)
	}
}
