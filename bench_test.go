// Benchmarks regenerating the paper's evaluation artifacts (§5), one
// bench family per table/figure. Each iteration runs a complete scaled-
// down cluster point and reports the paper's metrics as custom benchmark
// outputs: tps/site (Figure y-axis), abort% and response time. Run the
// full-scale sweeps with cmd/replbench instead; these benches are the
// CI-sized regeneration hooks referenced by DESIGN.md's experiment index.
package repro_test

import (
	"testing"
	"time"

	"repro"
)

// benchParams are Table 1 parameters scaled so one point costs ~1 s.
func benchParams() repro.Params {
	p := repro.DefaultParams()
	p.OpCost = 50 * time.Microsecond
	return p
}

func benchWorkload() repro.WorkloadConfig {
	wl := repro.DefaultWorkload()
	wl.TxnsPerThread = 15
	return wl
}

// runPoint executes one full cluster lifecycle and reports the paper's
// metrics for it.
func runPoint(b *testing.B, cfg repro.ClusterConfig) {
	b.Helper()
	var thr, abort, resp float64
	for i := 0; i < b.N; i++ {
		c, err := repro.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		rep, err := c.Run()
		if err != nil {
			c.Stop()
			b.Fatal(err)
		}
		if err := c.Quiesce(2 * time.Minute); err != nil {
			c.Stop()
			b.Fatal(err)
		}
		c.Stop()
		thr += rep.ThroughputPerSite
		abort += rep.AbortRate
		resp += float64(rep.MeanResponse.Milliseconds())
	}
	n := float64(b.N)
	b.ReportMetric(thr/n, "tps/site")
	b.ReportMetric(abort/n, "abort%")
	b.ReportMetric(resp/n, "resp-ms")
	b.ReportMetric(0, "ns/op") // wall time is not the interesting axis
}

// BenchmarkTable1Default runs the Table 1 default configuration (scaled)
// under both measured protocols — the baseline every figure varies from.
func BenchmarkTable1Default(b *testing.B) {
	for _, proto := range []repro.Protocol{repro.BackEdge, repro.PSL} {
		b.Run(proto.String(), func(b *testing.B) {
			runPoint(b, repro.ClusterConfig{
				Workload: benchWorkload(),
				Protocol: proto,
				Params:   benchParams(),
				Latency:  150 * time.Microsecond,
			})
		})
	}
}

// BenchmarkFig2a regenerates Figure 2(a): throughput vs backedge
// probability, BackEdge vs PSL.
func BenchmarkFig2a(b *testing.B) {
	for _, bp := range []float64{0, 0.5, 1} {
		for _, proto := range []repro.Protocol{repro.BackEdge, repro.PSL} {
			b.Run(proto.String()+"/b="+ftoa(bp), func(b *testing.B) {
				wl := benchWorkload()
				wl.BackedgeProb = bp
				runPoint(b, repro.ClusterConfig{
					Workload: wl, Protocol: proto,
					Params: benchParams(), Latency: 150 * time.Microsecond,
				})
			})
		}
	}
}

// BenchmarkFig2b regenerates Figure 2(b): throughput vs replication
// probability.
func BenchmarkFig2b(b *testing.B) {
	for _, r := range []float64{0, 0.2, 1} {
		for _, proto := range []repro.Protocol{repro.BackEdge, repro.PSL} {
			b.Run(proto.String()+"/r="+ftoa(r), func(b *testing.B) {
				wl := benchWorkload()
				wl.ReplicationProb = r
				runPoint(b, repro.ClusterConfig{
					Workload: wl, Protocol: proto,
					Params: benchParams(), Latency: 150 * time.Microsecond,
				})
			})
		}
	}
}

// BenchmarkFig3a regenerates Figure 3(a): throughput vs read-operation
// probability at backedge probability 0 (r=0.5, no read-only txns).
func BenchmarkFig3a(b *testing.B) { benchFig3(b, 0) }

// BenchmarkFig3b regenerates Figure 3(b): the same sweep at backedge
// probability 1.
func BenchmarkFig3b(b *testing.B) { benchFig3(b, 1) }

func benchFig3(b *testing.B, backedge float64) {
	for _, ro := range []float64{0, 0.5, 1} {
		for _, proto := range []repro.Protocol{repro.BackEdge, repro.PSL} {
			b.Run(proto.String()+"/readOp="+ftoa(ro), func(b *testing.B) {
				wl := benchWorkload()
				wl.BackedgeProb = backedge
				wl.ReplicationProb = 0.5
				wl.ReadTxnProb = 0
				wl.ReadOpProb = ro
				runPoint(b, repro.ClusterConfig{
					Workload: wl, Protocol: proto,
					Params: benchParams(), Latency: 150 * time.Microsecond,
				})
			})
		}
	}
}

// BenchmarkResponseTime covers the §5.3.4 response-time comparison; the
// resp-ms metric is the artifact (paper: BackEdge ≈180 ms < PSL ≈260 ms
// on 1999 hardware).
func BenchmarkResponseTime(b *testing.B) {
	for _, proto := range []repro.Protocol{repro.BackEdge, repro.PSL} {
		b.Run(proto.String(), func(b *testing.B) {
			runPoint(b, repro.ClusterConfig{
				Workload: benchWorkload(), Protocol: proto,
				Params: benchParams(), Latency: 150 * time.Microsecond,
			})
		})
	}
}

// BenchmarkPropagationDelay covers §5.3.4's propagation-delay report.
func BenchmarkPropagationDelay(b *testing.B) {
	var mean, max float64
	for i := 0; i < b.N; i++ {
		c, err := repro.NewCluster(repro.ClusterConfig{
			Workload: benchWorkload(), Protocol: repro.BackEdge,
			Params: benchParams(), Latency: 150 * time.Microsecond,
			TrackPropagation: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		if _, err := c.Run(); err != nil {
			c.Stop()
			b.Fatal(err)
		}
		if err := c.Quiesce(2 * time.Minute); err != nil {
			c.Stop()
			b.Fatal(err)
		}
		rep := c.Metrics.Snapshot(9)
		c.Stop()
		mean += float64(rep.MeanPropDelay.Milliseconds())
		max += float64(rep.MaxPropDelay.Milliseconds())
	}
	b.ReportMetric(mean/float64(b.N), "prop-mean-ms")
	b.ReportMetric(max/float64(b.N), "prop-max-ms")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkDAGAblation compares the protocols (and both DAG(WT) tree
// shapes) on a DAG workload — the X4 ablation from DESIGN.md.
func BenchmarkDAGAblation(b *testing.B) {
	type variant struct {
		name  string
		proto repro.Protocol
		tree  bool
	}
	for _, v := range []variant{
		{"DAGWT-chain", repro.DAGWT, false},
		{"DAGWT-tree", repro.DAGWT, true},
		{"DAGT", repro.DAGT, false},
		{"BackEdge", repro.BackEdge, false},
		{"PSL", repro.PSL, false},
	} {
		b.Run(v.name, func(b *testing.B) {
			wl := benchWorkload()
			wl.BackedgeProb = 0
			runPoint(b, repro.ClusterConfig{
				Workload: wl, Protocol: v.proto,
				Params: benchParams(), Latency: 150 * time.Microsecond,
				GeneralTree: v.tree,
			})
		})
	}
}

// BenchmarkClusterNew builds a Table 1 cluster (9 sites, in-memory
// transport at 0.15 ms) without starting it: the fixed cost every run
// pays before its first transaction. B/op is the construction footprint,
// the per-site queues included. The DAG protocols get b=0, which they
// require.
func BenchmarkClusterNew(b *testing.B) {
	for _, v := range []struct {
		name  string
		proto repro.Protocol
	}{
		{"BackEdge", repro.BackEdge},
		{"DAGWT", repro.DAGWT},
		{"DAGT", repro.DAGT},
		{"PSL", repro.PSL},
	} {
		b.Run(v.name, func(b *testing.B) {
			wl := repro.DefaultWorkload()
			if v.proto == repro.DAGWT || v.proto == repro.DAGT {
				wl.BackedgeProb = 0
			}
			cfg := repro.ClusterConfig{
				Workload: wl, Protocol: v.proto,
				Params: repro.DefaultParams(), Latency: 150 * time.Microsecond,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := repro.NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				c.Stop()
			}
		})
	}
}

func ftoa(f float64) string {
	switch f {
	case 0:
		return "0.0"
	case 0.2:
		return "0.2"
	case 0.5:
		return "0.5"
	case 1:
		return "1.0"
	default:
		return "x"
	}
}
