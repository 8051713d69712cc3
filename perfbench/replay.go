package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/twopc"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The layer replay calls each layer's public functions directly on the
// seed's generated transactions, one layer at a time: no other layer,
// no contention, no simulated operation cost.

// replayBudget is roughly how long each layer's replay runs.
const replayBudget = 300 * time.Millisecond

// replayInput is the seed's placement plus a pool of generated
// transactions per site.
type replayInput struct {
	wl        workload.Config
	placement *model.Placement
	txns      [][]model.Op
	sites     []model.SiteID // origin site of each transaction
}

func newReplayInput(def workloadDef, seed int64) (*replayInput, error) {
	wl, _ := def.config()
	p, err := wl.GeneratePlacement()
	if err != nil {
		return nil, err
	}
	in := &replayInput{wl: wl, placement: p}
	const perSite = 200
	for s := 0; s < wl.Sites; s++ {
		gen := workload.NewTxnGen(wl, p, model.SiteID(s), clientSeed(seed, s, 0))
		for i := 0; i < perSite; i++ {
			in.txns = append(in.txns, gen.Next())
			in.sites = append(in.sites, model.SiteID(s))
		}
	}
	return in, nil
}

// replayLock times one acquire plus its share of the release, per
// operation, on an uncontended lock manager.
func replayLock(in *replayInput) (nsPerOp float64, err error) {
	lm := lock.NewManager(false)
	var ops, seq uint64
	start := time.Now()
	for time.Since(start) < replayBudget {
		for i, prog := range in.txns {
			seq++
			tid := model.TxnID{Site: in.sites[i], Seq: seq}
			for _, op := range prog {
				mode := lock.Shared
				if op.Kind == model.OpWrite {
					mode = lock.Exclusive
				}
				if err := lm.Acquire(tid, op.Item, mode, time.Second); err != nil {
					return 0, fmt.Errorf("lock replay: %w", err)
				}
			}
			lm.ReleaseAll(tid)
			ops += uint64(len(prog))
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), nil
}

// replayTxn times a whole local transaction (reads, buffered writes,
// commit) through the transaction manager of each origin site, without
// a log and without contention.
func replayTxn(in *replayInput) (nsPerTxn float64, err error) {
	mgrs := make([]*txn.Manager, in.wl.Sites)
	for s := range mgrs {
		st := storage.NewStore()
		for _, it := range in.placement.CopiesAt(model.SiteID(s)) {
			if err := st.Create(it, 0); err != nil {
				return 0, err
			}
		}
		mgrs[s] = txn.NewManager(model.SiteID(s), st, lock.NewManager(false), time.Second, nil)
	}
	var n, seq uint64
	start := time.Now()
	for time.Since(start) < replayBudget {
		for i, prog := range in.txns {
			seq++
			t := mgrs[in.sites[i]].Begin(model.TxnID{Site: in.sites[i], Seq: seq})
			for _, op := range prog {
				if op.Kind == model.OpWrite {
					err = t.Write(op.Item, op.Value)
				} else {
					_, err = t.Read(op.Item)
				}
				if err != nil {
					return 0, fmt.Errorf("txn replay: %w", err)
				}
			}
			if err := t.Commit(); err != nil {
				return 0, fmt.Errorf("txn replay: %w", err)
			}
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// replayComm sends one message per generated write from its origin to
// each replica site over a zero-latency in-memory transport and times
// send through delivery, per message.
func replayComm(in *replayInput) (usPerMsg float64, err error) {
	tr := comm.NewMemTransport(0)
	defer tr.Close()
	var delivered atomic.Int64
	for s := 0; s < in.wl.Sites; s++ {
		tr.Register(model.SiteID(s), func(comm.Message) { delivered.Add(1) })
	}
	var sent int64
	start := time.Now()
	for time.Since(start) < replayBudget {
		for i, prog := range in.txns {
			for _, op := range prog {
				if op.Kind != model.OpWrite {
					continue
				}
				for _, r := range in.placement.ReplicaSites(op.Item) {
					msg := comm.Message{From: in.sites[i], To: r, Kind: 1, Payload: op.Value}
					if err := tr.Send(msg); err != nil {
						return 0, fmt.Errorf("comm replay: %w", err)
					}
					sent++
				}
			}
		}
	}
	for delivered.Load() < sent {
		time.Sleep(100 * time.Microsecond)
	}
	if sent == 0 {
		return 0, fmt.Errorf("comm replay: the workload replicates nothing")
	}
	return float64(time.Since(start).Microseconds()) / float64(sent), nil
}

// walReplay is what the WAL replay measured: median Append and Sync
// latencies, and the log's own counters.
type walReplay struct {
	appendUS, syncUS       float64
	appends, fsyncs, bytes float64
}

// replayWAL appends each generated update's write set to a scratch log
// in dir as an apply record and syncs it through the group-commit
// window, from as many writers as a site has client threads, as the
// threads of a durable site share its log. It returns the median Append
// and Sync latencies and how many appends, fsyncs and bytes the log
// counted.
func replayWAL(in *replayInput, dir string) (walReplay, error) {
	var out walReplay
	dir = filepath.Join(dir, "wal-replay")
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	lg, err := wal.Open(dir, wal.Options{FlushInterval: walFlushWindow, Items: in.placement.CopiesAt(0), Obs: reg})
	if err != nil {
		return out, err
	}
	defer lg.Close()
	writers := in.wl.ThreadsPerSite
	appends := make([][]float64, writers)
	syncs := make([][]float64, writers)
	errs := make([]error, writers)
	var seq atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < replayBudget {
				for i := w; i < len(in.txns) && time.Since(start) < replayBudget; i += writers {
					var writes []model.WriteOp
					for _, op := range in.txns[i] {
						if op.Kind == model.OpWrite {
							writes = append(writes, model.WriteOp{Item: op.Item, Value: op.Value})
						}
					}
					if len(writes) == 0 {
						continue
					}
					tid := model.TxnID{Site: in.sites[i], Seq: seq.Add(1)}
					t0 := time.Now()
					if errs[w] = lg.Append(wal.Record{Kind: wal.KindApply, TID: tid, Writes: writes}); errs[w] != nil {
						return
					}
					t1 := time.Now()
					if errs[w] = lg.Sync(); errs[w] != nil {
						return
					}
					t2 := time.Now()
					appends[w] = append(appends[w], float64(t1.Sub(t0))/1e3)
					syncs[w] = append(syncs[w], float64(t2.Sub(t1))/1e3)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return out, fmt.Errorf("wal replay: %w", err)
	}
	snap := reg.Snapshot()
	out.appends = float64(sumFamily(snap, "repl_wal_appends_total"))
	out.fsyncs = float64(sumFamily(snap, "repl_wal_fsyncs_total"))
	out.bytes = float64(sumFamily(snap, "repl_wal_bytes_total"))
	allAppends, allSyncs := slices.Concat(appends...), slices.Concat(syncs...)
	if len(allAppends) == 0 {
		return out, fmt.Errorf("wal replay: the workload has no updates")
	}
	out.appendUS, out.syncUS = median(allAppends), median(allSyncs)
	return out, nil
}

// replay2PC runs one two-phase commit round per generated update over
// the workload's link latency: the origin coordinates, and the replica
// sites of its write set (the sites an eager protocol must commit with)
// vote yes. It returns the median round time.
func replay2PC(in *replayInput) (roundUS float64, err error) {
	tr := comm.NewMemTransport(linkLatency)
	defer tr.Close()
	rpcs := make([]*comm.RPC, in.wl.Sites)
	for s := range rpcs {
		site := model.SiteID(s)
		r := comm.NewRPC(site, tr)
		rpcs[s] = r
		tr.Register(site, func(m comm.Message) {
			if m.IsResp {
				r.HandleResponse(m)
				return
			}
			r.Reply(m, true)
		})
	}
	var rounds []float64
	var seq uint64
	start := time.Now()
	for time.Since(start) < replayBudget {
		for i, prog := range in.txns {
			origin := in.sites[i]
			seen := map[model.SiteID]bool{}
			var parts []model.SiteID
			for _, op := range prog {
				if op.Kind != model.OpWrite {
					continue
				}
				for _, r := range in.placement.ReplicaSites(op.Item) {
					if !seen[r] {
						seen[r] = true
						parts = append(parts, r)
					}
				}
			}
			if len(parts) == 0 {
				continue
			}
			seq++
			rpc := rpcs[origin]
			coord := twopc.Coordinator{
				Prepare: func(p model.SiteID, tid model.TxnID, sc model.SpanContext) (bool, error) {
					resp, err := rpc.Call(p, 1, tid, time.Second)
					if err != nil {
						return false, err
					}
					return resp.(bool), nil
				},
				Decide: func(p model.SiteID, tid model.TxnID, commit bool, sc model.SpanContext) error {
					_, err := rpc.Call(p, 2, commit, time.Second)
					return err
				},
				Log: twopc.NewDecisionLog(),
			}
			t0 := time.Now()
			ok, err := twopc.Run(model.TxnID{Site: origin, Seq: seq}, parts, coord, model.SpanContext{})
			if err != nil || !ok {
				return 0, fmt.Errorf("2pc replay: committed=%v err=%v", ok, err)
			}
			rounds = append(rounds, float64(time.Since(t0))/1e3)
			if time.Since(start) >= replayBudget {
				break
			}
		}
	}
	if len(rounds) == 0 {
		return 0, fmt.Errorf("2pc replay: the workload replicates nothing")
	}
	return median(rounds), nil
}
