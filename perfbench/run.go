package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// One run builds and starts many clusters before its measured window,
// the last of them being the measured one, and setup_s is the median of
// their set-up times, because a single sample is noisy. It builds at
// least setupMin clusters and goes on for setupBudget: a set-up takes
// from under a millisecond (DAG(T)) to about 50 ms (BackEdge), and the
// cheap ones need many samples for a steady median.
//
// Before each set-up, the heap is collected and its free memory returned
// to the operating system, so every set-up starts as in a fresh process:
// it pays for the memory it takes, and neither the previous cluster's
// garbage nor how much of it the runtime happened to keep is charged to
// it (BackEdge's queues take tens of megabytes, and reusing kept memory
// or faulting in new pages made one set-up take from 10 to 70 ms).
const (
	setupMin    = 15
	setupBudget = time.Second
)

// quiesceLimit bounds the drain after the load stops.
const quiesceLimit = 120 * time.Second

// stopWait bounds the wait for a stopped cluster's goroutines to return.
// It is a bound, not a delay: an idle cluster's goroutines return within
// a few milliseconds, but after a load one of them can outlive it.
const stopWait = 250 * time.Millisecond

// stopCluster stops c and waits until the process runs no more goroutines
// than it did before c was built, so that c's memory can be collected
// before the next cluster is built. Stop returns before its goroutines
// do, and a cluster built in the meantime made two clusters' queues
// resident at once in some runs and not in others: the process's peak
// RSS, which max_rss_mb reports, then moved by one cluster's size.
func stopCluster(c *cluster.Cluster, goroutines int) {
	c.Stop()
	for deadline := time.Now().Add(stopWait); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
}

// span is one benchmark-side trace span: the benchmark's own calls into
// the program (cluster.New, Start, each Execute, Quiesce, the checks).
// Execute spans carry the transaction id they were matched to, which
// they share with the recorder's events for that transaction.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Site    int    `json:"site,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	TID     string `json:"tid,omitempty"`
}

// tracer keeps spans in memory on the recorder's clock: its base is read
// just before the recorder starts its own clock, so a recorder event at
// T happened at T+d on the tracer's clock, with 0 <= d <= skew.
type tracer struct {
	rec  *trace.Recorder
	base time.Time
	skew time.Duration
	mu   sync.Mutex
	all  []span
}

func newTracer() *tracer {
	base := time.Now()
	rec := trace.NewRecorder()
	return &tracer{rec: rec, base: base, skew: time.Since(base)}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

// add records a finished span under the run's root span (id 0).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s.ID = len(t.all) + 1
	t.all = append(t.all, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.add(span{Name: name, Start: t.ns(start), End: t.ns(time.Now())})
	return err
}

// client is one closed-loop client thread of §5.2: it sends its next
// transaction only after the previous one returned.
type client struct {
	site model.SiteID
	gen  *workload.TxnGen

	attempts []attempt
	spans    []span
	err      error
}

// attempt is one timed Execute call.
type attempt struct {
	end     time.Duration // since the window opened
	ms      float64       // from the call to its return
	update  bool          // the program writes
	aborted bool
}

func isUpdate(ops []model.Op) bool {
	for _, op := range ops {
		if op.Kind == model.OpWrite {
			return true
		}
	}
	return false
}

func (cl *client) reset() {
	cl.attempts, cl.spans = cl.attempts[:0], cl.spans[:0]
}

func (cl *client) run(eng core.Engine, opened time.Time, stop *atomic.Bool, tr *tracer) {
	for !stop.Load() {
		ops := cl.gen.Next()
		update := isUpdate(ops)
		start := time.Now()
		err := eng.Execute(ops)
		end := time.Now()
		a := attempt{end: end.Sub(opened), ms: float64(end.Sub(start)) / 1e6, update: update}
		switch {
		case err == nil:
		case errors.Is(err, txn.ErrAborted):
			a.aborted = true
		default:
			cl.err = fmt.Errorf("site %d: Execute: %w", cl.site, err)
			return
		}
		cl.attempts = append(cl.attempts, a)
		if tr != nil {
			kind, outcome := "read", "commit"
			if update {
				kind = "update"
			}
			if a.aborted {
				outcome = "abort"
			}
			cl.spans = append(cl.spans, span{Name: "Execute", Site: int(cl.site), Kind: kind,
				Outcome: outcome, Start: tr.ns(start), End: tr.ns(end)})
		}
	}
}

// runClients drives every client for d and waits for all of them to
// return. A traced run also ends once the recorder has taken
// tracedEvents events since the window opened: it keeps them all in
// memory.
func runClients(c *cluster.Cluster, clients []*client, d time.Duration, tr *tracer) error {
	opened := time.Now()
	var stop atomic.Bool
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	done := make(chan struct{})
	var capper sync.WaitGroup
	if tr != nil {
		capper.Add(1)
		go func() {
			defer capper.Done()
			tr.capEvents(&stop, done)
		}()
	}
	var wg sync.WaitGroup
	for _, cl := range clients {
		cl.reset()
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.run(c.Engine(cl.site), opened, &stop, tr)
		}(cl)
	}
	wg.Wait()
	close(done)
	capper.Wait()
	var errs []error
	for _, cl := range clients {
		if cl.err != nil {
			errs = append(errs, cl.err)
		}
	}
	return errors.Join(errs...)
}

// tracedEvents bounds the events a traced window records.
const tracedEvents = 150_000

// capEvents sets stop once the recorder holds tracedEvents more events
// than when it was called, polling until done is closed.
func (t *tracer) capEvents(stop *atomic.Bool, done <-chan struct{}) {
	limit := t.rec.Len() + tracedEvents
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			if t.rec.Len() >= limit {
				stop.Store(true)
				return
			}
		}
	}
}

// counters is one reading of the counters the program keeps, taken at an
// edge of the measured window while no client transaction is running.
type counters struct {
	committed, aborted         uint64
	messages                   uint64
	secondaries, dummies       uint64
	retries                    uint64
	phaseCount                 map[string]uint64
	obs                        map[string]int64
	reads, readsStale          uint64
	lockWaited                 uint64
	aborts                     map[string]uint64
	usage                      procUsage
	mallocs, allocBytes, numGC uint64
	gcPauseNS                  uint64
	propP95                    time.Duration
}

func readCounters(c *cluster.Cluster, reg *obs.Registry) (counters, error) {
	rep := c.Metrics.Snapshot(c.Placement.NumSites)
	k := counters{
		committed: rep.Committed, aborted: rep.Aborted, messages: rep.Messages,
		secondaries: rep.Secondaries, dummies: rep.Dummies, retries: rep.Retries,
		phaseCount: map[string]uint64{},
		obs:        reg.Snapshot(),
		aborts:     c.AbortReasons(),
		propP95:    rep.P95PropDelay,
	}
	for name, ps := range rep.Phases {
		k.phaseCount[name] = ps.Count
	}
	fs := c.FreshSummary()
	k.reads, k.readsStale = fs.Reads(), fs.ReadsStale
	for _, sh := range c.SiteHeat() {
		for _, it := range sh.Items {
			k.lockWaited += it.Waited
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.mallocs, k.allocBytes, k.numGC, k.gcPauseNS = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	u, err := readUsage()
	if err != nil {
		return k, err
	}
	k.usage = u
	return k, nil
}

// family sums every series of an obs counter family.
func (k counters) family(name string) int64 { return sumFamily(k.obs, name) }

// sumFamily sums every series of an obs counter family in a registry
// snapshot.
func sumFamily(snap map[string]int64, name string) int64 {
	var sum int64
	for key, v := range snap {
		if key == name || strings.HasPrefix(key, name+"{") {
			sum += v
		}
	}
	return sum
}

// tpsWithin is the commit rate over the first d of the window.
func (r *runResult) tpsWithin(d time.Duration) float64 {
	n := 0
	for _, a := range r.attempts {
		if !a.aborted && a.end <= d {
			n++
		}
	}
	return float64(n) / d.Seconds()
}

// runResult is everything one measured run produced.
type runResult struct {
	setupS, newMS, startMS []float64

	elapsed            time.Duration
	drain              time.Duration
	committed, aborted uint64
	updatesCommitted   uint64
	attempts           []attempt
	slices             []slice // untraced runs only
	before, after      counters

	// Traced runs only.
	spans     []span
	events    []trace.Event
	windowNS  int64 // window start on the tracer's clock
	skewNS    int64 // how far the recorder's clock may lag the tracer's
	serialOK  bool
	converged bool
}

// runOnce builds the workload's cluster (many times, keeping the last),
// warms it up, measures the closed loop for dur, drains it, and checks
// the result. A traced run also attaches
// the program's trace recorder and serializability recorder and keeps its
// own spans.
func runOnce(def workloadDef, seed int64, dur, warmup time.Duration, traced bool) (*runResult, error) {
	wl, params := def.config()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &runResult{}
	reg := obs.NewRegistry()
	var goroutines int // before the current cluster was built
	build := func() (*cluster.Cluster, error) {
		cfg := cluster.Config{
			Workload:         wl,
			Protocol:         def.Protocol,
			Params:           params,
			Latency:          linkLatency,
			TrackPropagation: true,
			Obs:              reg,
		}
		if tr != nil {
			cfg.Trace = tr.rec
			cfg.Record = true
		}
		t0 := time.Now()
		c, err := cluster.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster.New: %w", err)
		}
		t1 := time.Now()
		c.Start()
		t2 := time.Now()
		res.setupS = append(res.setupS, t2.Sub(t0).Seconds())
		res.newMS = append(res.newMS, float64(t1.Sub(t0))/1e6)
		res.startMS = append(res.startMS, float64(t2.Sub(t1))/1e6)
		if tr != nil {
			tr.add(span{Name: "cluster.New", Start: tr.ns(t0), End: tr.ns(t1)})
			tr.add(span{Name: "cluster.Start", Start: tr.ns(t1), End: tr.ns(t2)})
		}
		return c, nil
	}
	// Each discarded cluster is a fresh registry user too; only the kept
	// one's counters are read, as deltas across the window.
	var c *cluster.Cluster
	defer func() {
		if c != nil {
			stopCluster(c, goroutines)
		}
	}()
	setupStart := time.Now()
	for i := 0; i < setupMin || time.Since(setupStart) < setupBudget; i++ {
		if c != nil {
			stopCluster(c, goroutines)
		}
		debug.FreeOSMemory()
		goroutines = runtime.NumGoroutine()
		var err error
		if c, err = build(); err != nil {
			return nil, err
		}
	}

	clients := make([]*client, 0, wl.Sites*wl.ThreadsPerSite)
	for s := 0; s < wl.Sites; s++ {
		for th := 0; th < wl.ThreadsPerSite; th++ {
			gen := workload.NewTxnGen(wl, c.Placement, model.SiteID(s), clientSeed(seed, s, th))
			clients = append(clients, &client{site: model.SiteID(s), gen: gen})
		}
	}

	// Warm-up: untimed, and every client has returned before the window
	// opens, so the counter deltas cover exactly the window's attempts.
	if err := runClients(c, clients, warmup, nil); err != nil {
		return nil, err
	}
	var err error
	if res.before, err = readCounters(c, reg); err != nil {
		return nil, err
	}
	start := time.Now()
	if tr != nil {
		res.windowNS, res.skewNS = tr.ns(start), int64(tr.skew)
	}
	n, l := slicing(dur)
	var marks []time.Duration
	var markErr error
	var marking sync.WaitGroup
	if tr == nil {
		marking.Add(1)
		go func() {
			defer marking.Done()
			marks, markErr = markCPU(start, l, n)
		}()
	}
	err = runClients(c, clients, dur, tr)
	end := time.Now()
	marking.Wait()
	if err = errors.Join(err, markErr); err != nil {
		return nil, err
	}
	res.elapsed = end.Sub(start)
	if err := tr.timed("Quiesce", func() error { return c.Quiesce(quiesceLimit) }); err != nil {
		return nil, err
	}
	res.drain = time.Since(end)
	if res.after, err = readCounters(c, reg); err != nil {
		return nil, err
	}
	for _, cl := range clients {
		res.attempts = append(res.attempts, cl.attempts...)
		res.spans = append(res.spans, cl.spans...)
	}
	for _, a := range res.attempts {
		switch {
		case a.aborted:
			res.aborted++
		case a.update:
			res.committed++
			res.updatesCommitted++
		default:
			res.committed++
		}
	}
	if tr == nil {
		res.slices = cutSlices(res.attempts, n, l, marks)
	}
	if err := res.check(c, tr); err != nil {
		return nil, err
	}
	if tr != nil {
		for i := range res.spans {
			tr.add(res.spans[i])
		}
		res.spans = tr.all
		res.events = tr.rec.Snapshot()
	}
	return res, nil
}

// check is the correctness gate every timed run passes before it reports
// anything. Both workloads' protocols propagate updates lazily and are
// serializable, so every run checks that the replicas converged and a
// traced run, which records the histories, checks serializability.
func (r *runResult) check(c *cluster.Cluster, tr *tracer) error {
	if r.committed == 0 {
		return fmt.Errorf("no transaction committed in the window")
	}
	dc := r.after.committed - r.before.committed
	da := r.after.aborted - r.before.aborted
	if dc != r.committed || da != r.aborted {
		return fmt.Errorf("the program counted %d commits + %d aborts, the clients saw %d + %d",
			dc, da, r.committed, r.aborted)
	}
	if err := tr.timed("CheckConvergence", c.CheckConvergence); err != nil {
		return err
	}
	r.converged = true
	if tr != nil {
		if err := tr.timed("CheckSerializable", c.CheckSerializable); err != nil {
			return err
		}
		r.serialOK = true
	}
	return nil
}
