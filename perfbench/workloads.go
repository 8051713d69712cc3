package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// linkLatency is the one-way latency of every in-memory link: the
// 0.15 ms the paper measured on its ethernet (Table 1).
const linkLatency = 150 * time.Microsecond

// walFlushWindow is the group-commit window of the layer replay's
// scratch log. It is part of what a result means: two results are
// comparable only when both ran with the same window, so every traced
// result records it.
const walFlushWindow = 500 * time.Microsecond

// clientSeed is the transaction-program seed of one client thread:
// distinct (run seed, site, thread) triples draw distinct streams.
func clientSeed(seed int64, site, thread int) int64 {
	return seed*1_000_000 + int64(site)*1000 + int64(thread)
}

// workloadDef is one named benchmark workload. Why records the reason it
// exists and Bypasses the layers on which it predicts no change.
type workloadDef struct {
	Name     string
	Why      string
	Bypasses string
	Protocol core.Protocol
	// Backedge is Table 1's b; 0 keeps the copy graph acyclic, as DAG(T)
	// requires.
	Backedge float64
}

// workloads are the benchmark's workloads, the ones BENCHMARK.json lists.
// Neither keeps a log, so the WAL is measured by the layer replay alone.
var workloads = []workloadDef{
	{
		Name: "table1-backedge",
		Why: "The paper's own configuration (Table 1), which every win must also hold under: " +
			"lock waits, the 50 ms lock timeout and BackEdge's 2PC dominate.",
		Bypasses: "wal (no log is kept)",
		Protocol: core.BackEdge,
		Backedge: 0.2,
	},
	{
		Name: "table1-dagt",
		Why: "Table 1 with an acyclic copy graph under DAG(T): propagation is ordered by " +
			"timestamps and kept moving by epochs and dummies, with no 2PC.",
		Bypasses: "twopc (no backedges) and wal (no log is kept)",
		Protocol: core.DAGT,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// placementSeed fixes each workload's data placement to the one Table
// 1's default seed generates: the placement is part of a workload's
// definition, like a schema, while the run seed generates the stream of
// transactions. Different placements differ in how much work their sites
// share, so letting the run seed pick the placement would make every
// metric vary with the seed far more than with the code.
var placementSeed = workload.Default().Seed

// config returns the generator and protocol parameters of the workload:
// Table 1 defaults with the workload's copy-graph shape and its fixed
// placement.
func (w workloadDef) config() (workload.Config, core.Params) {
	wl := workload.Default()
	wl.Seed = placementSeed
	wl.BackedgeProb = w.Backedge
	return wl, core.DefaultParams()
}
