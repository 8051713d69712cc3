package model

import (
	"strconv"
	"time"
)

// Causal span identifiers carried on the wire (docs/OBSERVABILITY.md).
//
// A span identifies one hop of one transaction's propagation through the
// copy graph. Identifiers are derived deterministically from the
// transaction id and the path taken, so two runs with the same seed (and
// two replicas reconstructing the same tree from a trace) agree on every
// id without any coordination or extra wire traffic beyond the
// SpanContext itself.

// SpanID names a single span. Zero means "no span": events recorded
// before this scheme existed, or bookkeeping events with no causal
// parent, carry SpanID(0) and serialize exactly as they did before.
type SpanID uint64

// String renders the id in hex, the form trace viewers display.
func (s SpanID) String() string { return "0x" + strconv.FormatUint(uint64(s), 16) }

// splitmix64 is the finalizer of the splitmix64 generator; it is a
// high-quality 64-bit mixer used here purely as a deterministic hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RootSpan derives the root span id of a transaction: the span under
// which the primary subtransaction executes at the origin site. It is
// never zero.
func RootSpan(tid TxnID) SpanID {
	h := splitmix64(uint64(uint32(tid.Site))<<32 | uint64(uint32(tid.Seq)))
	if h == 0 {
		h = 1
	}
	return SpanID(h)
}

// deriveSpan computes the child span id for work performed at site on
// behalf of parent. It is never zero.
func deriveSpan(parent SpanID, tid TxnID, site SiteID) SpanID {
	h := splitmix64(uint64(parent) ^ splitmix64(uint64(RootSpan(tid))+uint64(uint32(site))))
	if h == 0 {
		h = 1
	}
	return SpanID(h)
}

// AuxSpan derives a span id for auxiliary work (a retransmission, an
// ack, an injected fault) attributed to parent. salt distinguishes the
// auxiliary roles under one parent. It is never zero.
func AuxSpan(parent SpanID, salt uint64) SpanID {
	h := splitmix64(uint64(parent) + splitmix64(salt))
	if h == 0 {
		h = 1
	}
	return SpanID(h)
}

// SpanContext is the compact causal context carried in every message
// envelope: which transaction this work belongs to, the span of the
// sender's work, and how many copy-graph hops the update has taken.
type SpanContext struct {
	TID    TxnID
	Parent SpanID
	Hop    uint8
	// Committed is the origin's primary commit time, stamped right after
	// the commit succeeds when observation is on (zero otherwise) and
	// carried unchanged across every hop, so the applying site can turn
	// it into a propagation-delay sample without per-transaction state.
	// Like comm.Message.SentAt it is observation only: it never branches
	// protocol logic and takes no part in span identity.
	Committed time.Time
}

// Zero reports whether the context is empty (no transaction attached).
func (c SpanContext) Zero() bool { return c.TID.Zero() && c.Parent == 0 }

// SpanAt returns the span id of the work performed at site under this
// context. At the origin (Parent == 0) that is the transaction's root
// span; downstream it is a deterministic child of Parent, so the same
// code path serves both the primary and every relay.
func (c SpanContext) SpanAt(site SiteID) SpanID {
	if c.Parent == 0 {
		return RootSpan(c.TID)
	}
	return deriveSpan(c.Parent, c.TID, site)
}

// Fork returns the context to stamp on messages sent onward from site:
// the local span becomes the parent, the hop count advances, and the
// origin's commit stamp is copied across.
func (c SpanContext) Fork(site SiteID) SpanContext {
	return SpanContext{TID: c.TID, Parent: c.SpanAt(site), Hop: c.Hop + 1, Committed: c.Committed}
}
