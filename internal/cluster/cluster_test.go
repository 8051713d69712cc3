package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// fastParams returns protocol parameters scaled down for test speed while
// keeping the same relative magnitudes as Table 1.
func fastParams() core.Params {
	return core.Params{
		LockTimeout:    20 * time.Millisecond,
		PrepareTimeout: 200 * time.Millisecond,
		EpochPeriod:    5 * time.Millisecond,
		DummyPeriod:    3 * time.Millisecond,
		OpCost:         0,
		RPCTimeout:     100 * time.Millisecond,
	}
}

func smallWorkload() workload.Config {
	wl := workload.Default()
	wl.Sites = 5
	wl.Items = 60
	wl.ThreadsPerSite = 2
	wl.TxnsPerThread = 40
	return wl
}

// runAndCheck runs a full cluster lifecycle and applies the correctness
// checks appropriate for the protocol.
func runAndCheck(t *testing.T, cfg Config) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	defer c.Stop()
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Committed == 0 {
		t.Fatalf("no transactions committed: %+v", rep)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if cfg.Protocol.Serializable() {
		if err := c.CheckSerializable(); err != nil {
			t.Errorf("serializability violated: %v", err)
		}
	}
	if cfg.Protocol.Propagates() && cfg.Protocol.Serializable() {
		if err := c.CheckConvergence(); err != nil {
			t.Errorf("convergence violated: %v", err)
		}
	}
	if cfg.TrackPropagation && cfg.Protocol.Propagates() {
		// Lazily propagated updates carry their origin's commit stamp to
		// every applying site, so applies must yield delay samples.
		if r := c.Metrics.Snapshot(cfg.Workload.Sites); r.Secondaries > 0 && r.MaxPropDelay == 0 {
			t.Errorf("%d secondaries applied but no propagation-delay sample recorded", r.Secondaries)
		}
	}
	t.Logf("%v: %v", cfg.Protocol, rep)
}

func TestClusterProtocolsSmallWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	protos := []struct {
		proto    core.Protocol
		backedge float64
	}{
		{core.PSL, 0.2},
		{core.DAGWT, 0},
		{core.DAGT, 0},
		{core.BackEdge, 0.2},
		{core.BackEdge, 1.0},
	}
	for _, pc := range protos {
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			wl := smallWorkload()
			wl.BackedgeProb = pc.backedge
			runAndCheck(t, Config{
				Workload:         wl,
				Protocol:         pc.proto,
				Params:           fastParams(),
				Latency:          100 * time.Microsecond,
				Record:           true,
				TrackPropagation: true,
			})
		})
	}
}

func TestClusterDAGProtocolRejectsCyclicGraph(t *testing.T) {
	wl := smallWorkload()
	wl.BackedgeProb = 1
	wl.ReplicationProb = 1
	for _, proto := range []core.Protocol{core.DAGWT, core.DAGT} {
		if _, err := New(Config{Workload: wl, Protocol: proto, Params: fastParams()}); err == nil {
			t.Errorf("%v accepted a cyclic copy graph", proto)
		}
	}
}

func TestClusterGeneralTree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wl := smallWorkload()
	wl.BackedgeProb = 0
	runAndCheck(t, Config{
		Workload:    wl,
		Protocol:    core.DAGWT,
		Params:      fastParams(),
		Latency:     100 * time.Microsecond,
		GeneralTree: true,
		Record:      true,
	})
}

func TestClusterWithJitterStaysCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wl := smallWorkload()
	wl.BackedgeProb = 0
	runAndCheck(t, Config{
		Workload: wl,
		Protocol: core.DAGT,
		Params:   fastParams(),
		Latency:  100 * time.Microsecond,
		Jitter:   2 * time.Millisecond,
		Record:   true,
	})
}

func TestClusterQuiesceTimeout(t *testing.T) {
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	wl.BackedgeProb = 0
	c, err := New(Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	// Nothing in flight: quiesce must return immediately.
	if err := c.Quiesce(time.Second); err != nil {
		t.Fatalf("quiesce on idle cluster: %v", err)
	}
	// Simulate a stuck message.
	c.pending.Add(1)
	err = c.Quiesce(50 * time.Millisecond)
	if err == nil {
		t.Fatal("expected quiesce timeout")
	}
	c.pending.Done()
}

func TestClusterConvergenceUndefinedForPSL(t *testing.T) {
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	c, err := New(Config{Workload: wl, Protocol: core.PSL, Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConvergence(); err == nil {
		t.Fatal("expected convergence to be rejected for PSL")
	}
}

func TestClusterSerializabilityRequiresRecording(t *testing.T) {
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	wl.BackedgeProb = 0
	c, err := New(Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckSerializable(); err == nil {
		t.Fatal("expected an error without recording enabled")
	}
}

func TestClusterBackEdgeRejectsTreeWithoutAncestorTargets(t *testing.T) {
	// Item 0: primary s1, replica s0 — a backedge whose target s0 is not
	// reachable from anywhere in the remaining DAG. The chain makes s0 an
	// ancestor of s1 by construction, but the bushy tree leaves them in
	// separate components, which BackEdge routing cannot serve.
	p := model.NewPlacement(3, 3)
	p.Primary = []model.SiteID{1, 0, 2}
	p.Replicas = [][]model.SiteID{{0}, nil, nil}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	base := Config{Workload: wl, Protocol: core.BackEdge, Params: fastParams(), Placement: p}

	chainCfg := base
	if _, err := New(chainCfg); err != nil {
		t.Errorf("chain variant must accept this placement: %v", err)
	}
	treeCfg := base
	treeCfg.GeneralTree = true
	if _, err := New(treeCfg); err == nil {
		t.Error("bushy tree with an unroutable backedge was accepted")
	}
}

func TestClusterMinimizeBackedges(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wl := smallWorkload()
	wl.BackedgeProb = 0.6
	wl.ReplicationProb = 0.5

	ordered, err := New(Config{Workload: wl, Protocol: core.BackEdge, Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	minimized, err := New(Config{
		Workload: wl, Protocol: core.BackEdge, Params: fastParams(),
		MinimizeBackedges: true,
		Latency:           100 * time.Microsecond,
		Record:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The §4.2 heuristic must never cut MORE weight than the naive
	// ID-order split.
	w := func(c *Cluster) int {
		total := 0
		for _, e := range c.Backedges {
			total += c.Graph.Weight(e)
		}
		return total
	}
	if w(minimized) > w(ordered) {
		t.Errorf("FAS heuristic cut weight %d, ID order only %d", w(minimized), w(ordered))
	}
	// And the minimized cluster still runs correctly end to end.
	minimized.Start()
	defer minimized.Stop()
	rep, err := minimized.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if err := minimized.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := minimized.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
	if err := minimized.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	t.Logf("backedge weight: id-order=%d minimized=%d", w(ordered), w(minimized))
}

func TestClusterAccessors(t *testing.T) {
	wl := smallWorkload()
	wl.TxnsPerThread = 0
	wl.BackedgeProb = 0
	c, err := New(Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine(0) == nil || c.Engine(0).Site() != 0 {
		t.Error("Engine accessor broken")
	}
	if c.Transport() == nil {
		t.Error("Transport accessor broken")
	}
	if c.Tree == nil || c.Graph == nil || c.Placement == nil {
		t.Error("derived structures not exposed")
	}
}

func TestClusterManualPlacementAdoptsDimensions(t *testing.T) {
	p := model.NewPlacement(2, 1)
	p.Primary[0] = 0
	p.Replicas[0] = []model.SiteID{1}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload() // says 5 sites / 60 items; the placement overrides
	wl.TxnsPerThread = 0
	c, err := New(Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams(), Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cfg.Workload.Sites != 2 || c.Cfg.Workload.Items != 1 {
		t.Errorf("workload dims not adopted: %d sites, %d items",
			c.Cfg.Workload.Sites, c.Cfg.Workload.Items)
	}
}

func TestClusterRunPropagatesWorkloadErrors(t *testing.T) {
	wl := smallWorkload()
	wl.Items = 2 // fewer items than sites
	if _, err := New(Config{Workload: wl, Protocol: core.DAGWT, Params: fastParams()}); err == nil {
		t.Fatal("expected workload validation error")
	}
	var cfgErr error = errors.New("x")
	_ = cfgErr
}
