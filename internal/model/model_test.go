package model

import (
	"testing"
	"time"
)

func validPlacement(t *testing.T) *Placement {
	t.Helper()
	p := NewPlacement(3, 4)
	p.Primary = []SiteID{0, 0, 1, 2}
	p.Replicas = [][]SiteID{{1, 2}, nil, {2}, {0}}
	if err := p.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

func TestPlacementIndexes(t *testing.T) {
	p := validPlacement(t)

	if got := p.PrimariesAt(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("PrimariesAt(0) = %v, want [0 1]", got)
	}
	if got := p.ReplicasAt(2); len(got) != 2 {
		t.Errorf("ReplicasAt(2) = %v, want items 0 and 2", got)
	}
	if !p.HasCopy(1, 0) || p.HasCopy(1, 3) {
		t.Errorf("HasCopy wrong: s1 holds a replica of item 0 and nothing of item 3")
	}
	if !p.IsPrimary(2, 3) || p.IsPrimary(0, 3) {
		t.Errorf("IsPrimary wrong for item 3")
	}
	if !p.IsReplicated(0) || p.IsReplicated(1) {
		t.Errorf("IsReplicated wrong: item 0 is, item 1 is not")
	}
	copies := p.CopiesAt(0)
	if len(copies) != 3 { // primaries 0,1 + replica of 3
		t.Errorf("CopiesAt(0) = %v, want 3 entries", copies)
	}
}

func TestPlacementFinishRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		mut  func(p *Placement)
	}{
		{"primary out of range", func(p *Placement) { p.Primary[0] = 9 }},
		{"negative primary", func(p *Placement) { p.Primary[0] = -1 }},
		{"replica out of range", func(p *Placement) { p.Replicas[0] = []SiteID{7} }},
		{"replica equals primary", func(p *Placement) { p.Replicas[1] = []SiteID{0} }},
		{"duplicate replica", func(p *Placement) { p.Replicas[0] = []SiteID{1, 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlacement(3, 4)
			p.Primary = []SiteID{0, 0, 1, 2}
			p.Replicas = [][]SiteID{{1, 2}, nil, {2}, {0}}
			tc.mut(p)
			if err := p.Finish(); err == nil {
				t.Error("Finish accepted invalid placement")
			}
		})
	}
}

func TestPlacementReplicasSorted(t *testing.T) {
	p := NewPlacement(4, 1)
	p.Primary = []SiteID{0}
	p.Replicas = [][]SiteID{{3, 1, 2}}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	r := p.ReplicaSites(0)
	for i := 1; i < len(r); i++ {
		if r[i-1] >= r[i] {
			t.Fatalf("replicas not sorted: %v", r)
		}
	}
}

func TestPlacementFinishIdempotent(t *testing.T) {
	p := validPlacement(t)
	before := len(p.PrimariesAt(0))
	if err := p.Finish(); err != nil {
		t.Fatalf("second Finish: %v", err)
	}
	if got := len(p.PrimariesAt(0)); got != before {
		t.Errorf("indexes duplicated by re-Finish: %d -> %d", before, got)
	}
}

func TestTxnIDString(t *testing.T) {
	if got := (TxnID{}).String(); got != "T<nil>" {
		t.Errorf("zero TxnID = %q", got)
	}
	if got := (TxnID{Site: 2, Seq: 7}).String(); got != "T(s2:7)" {
		t.Errorf("TxnID = %q", got)
	}
	if !(TxnID{}).Zero() || (TxnID{Site: 1}).Zero() {
		t.Error("Zero() wrong")
	}
}

func TestOpString(t *testing.T) {
	if got := (Op{Kind: OpRead, Item: 5}).String(); got != "r[5]" {
		t.Errorf("read op = %q", got)
	}
	if got := (Op{Kind: OpWrite, Item: 3}).String(); got != "w[3]" {
		t.Errorf("write op = %q", got)
	}
}

// The origin's commit stamp rides along every hop unchanged, while the
// span identity ignores it.
func TestForkCarriesCommitStamp(t *testing.T) {
	tid := TxnID{Site: 2, Seq: 7}
	committed := time.Unix(1700000000, 123)
	sc := SpanContext{TID: tid, Committed: committed}
	hop := sc.Fork(2).Fork(5).Fork(6)
	if !hop.Committed.Equal(committed) || hop.Hop != 3 {
		t.Fatalf("after three forks: %+v, want the origin stamp and hop 3", hop)
	}
	unstamped := SpanContext{TID: tid}.Fork(2).Fork(5)
	if got, want := hop.Parent, unstamped.Fork(6).Parent; got != want {
		t.Fatalf("commit stamp changed span identity: %v vs %v", got, want)
	}
	if !unstamped.Committed.IsZero() {
		t.Fatalf("unstamped context gained a stamp: %v", unstamped.Committed)
	}
}
