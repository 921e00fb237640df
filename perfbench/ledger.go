package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"rrr"
	"rrr/internal/algo"
	"rrr/internal/core"
	"rrr/internal/cover"
	"rrr/internal/dataset"
	"rrr/internal/delta"
	"rrr/internal/geom"
	"rrr/internal/kset"
	"rrr/internal/service"
	"rrr/internal/shard"
	"rrr/internal/sweep"
	"rrr/internal/topk"
	"rrr/internal/wal"
	"rrr/internal/watch"
)

// ledgerSamples is how many requests of each cold type the traced run
// replays down the stack; ledgerCalls how many cached hits it times (rank
// probes and top-k scans take a tenth of that); ledgerMutations how many
// churn batches it replays.
const (
	ledgerSamples   = 3
	ledgerCalls     = 1000
	ledgerMutations = 40
)

// kindRecompute marks the ledger's MDRC solves of the churn data.
const kindRecompute = "recompute"

// Kernel and algorithm span names.
const (
	spanFindRanges = "sweep.FindRanges"
	spanCoverGain  = "cover.CoverMaxGain"
	spanSweep      = "sweep.Sweep"
	spanShardMap   = "shard.Candidates(TopKRanges)"
	spanTwoD       = "algo.TwoDRRR"
	spanMDRC       = "algo.MDRC"
	spanMDRRR      = "algo.MDRRR"
	spanTopK       = "topk.TopK"
	spanSample     = "kset.Sample"
	spanHitting    = "cover.GreedyHittingSet"
	spanApply      = "delta.Maintainer.Apply"
	spanClassify   = "delta.Pool.Classify"
	spanBuildPool  = "delta.BuildPool"
	spanDominance  = "shard.Candidates(Dominance)"
	spanWAL        = "wal.Store.Append"
	spanPublish    = "watch.Hub.Publish"
)

// workloadState is what a traced workload run hands the ledger: its
// daemon counters, its untraced cold medians (cold-solve), its nominal
// open-loop step (warm-read, churn) and whether it is churn.
type workloadState struct {
	cnt     counterDelta
	coldP50 map[string]float64
	steps   []step
	churn   bool
}

// ledgerRun accumulates the counts the timed calls return.
type ledgerRun struct {
	b       *bench
	d       *daemon
	tr      *tracer
	events  int
	prune   []float64
	mdrc    algo.Stats
	mdrcN   int
	draws   int
	ksets   int
	sweeps  []float64
	walSize []float64
	copies  int
}

func (b *bench) newService(watchOn bool) *service.Service {
	return service.New(service.Config{
		Seed:             solverSeed,
		SolverOptions:    []rrr.Option{rrr.WithBatchWorkers(runtime.GOMAXPROCS(0))},
		DeltaMaintenance: watchOn,
		Watch:            watchOn,
	})
}

// serve runs one request through an in-process service.Server.
func serve(srv *service.Server, method, path string, body []byte) error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		return fmt.Errorf("in-process %s %s: status %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

// fresh registers a new copy of spec on the daemon and in two fresh
// in-process services (one behind service.Server), so every layer of a
// replayed cold request starts uncached.
func (l *ledgerRun) fresh(ctx context.Context, prefix string, spec dataSpec) (string, *service.Server, *service.Service, error) {
	l.copies++
	name := fmt.Sprintf("%s-%d", prefix, l.copies)
	if err := l.d.register(ctx, name, spec); err != nil {
		return "", nil, nil, err
	}
	svcHTTP, svc := l.b.newService(false), l.b.newService(false)
	for _, s := range []*service.Service{svcHTTP, svc} {
		if _, err := s.Registry().Generate(name, spec.kind, spec.n, spec.dims, spec.seed); err != nil {
			return "", nil, nil, err
		}
	}
	return name, service.NewServer(svcHTTP), svc, nil
}

// top times the socket, handler, Service and Solver layers of one cold
// request and returns the Solver span for the layers below it.
func (l *ledgerRun) top(ctx context.Context, req int, method, path string, body []byte, srv *service.Server, svcCall, solverCall func() error) (int, error) {
	sock, err := l.tr.time(req, 0, layerSocket, func() error {
		_, err := l.d.do(ctx, method, path, body, nil)
		return err
	})
	if err != nil {
		return 0, err
	}
	h, err := l.tr.time(req, sock, layerHTTP, func() error { return serve(srv, method, path, body) })
	if err != nil {
		return 0, err
	}
	s, err := l.tr.time(req, h, layerService, svcCall)
	if err != nil {
		return 0, err
	}
	so, err := l.tr.time(req, s, layerSolver, solverCall)
	return so, err
}

func (l *ledgerRun) replay2D(ctx context.Context, d2 *core.Dataset, k int) error {
	name, srv, svc, err := l.fresh(ctx, "lg2d", cold2D)
	if err != nil {
		return err
	}
	req := l.tr.request(kind2D)
	so, err := l.top(ctx, req, http.MethodGet, fmt.Sprintf("/v1/representative?dataset=%s&k=%d", name, k), nil, srv,
		func() error { _, err := svc.Representative(ctx, name, k, ""); return err },
		func() error { _, err := rrr.New(rrr.WithSeed(solverSeed)).Solve(ctx, d2, k); return err })
	if err != nil {
		return err
	}
	a, err := l.tr.time(req, so, spanTwoD, func() error { _, err := algo.TwoDRRR(ctx, d2, k, algo.TwoDOptions{}); return err })
	if err != nil {
		return err
	}
	var ranges map[int]sweep.Range
	if _, err = l.tr.time(req, a, spanFindRanges, func() error { ranges, err = sweep.FindRanges(ctx, d2, k); return err }); err != nil {
		return err
	}
	intervals := make([]cover.Interval, 0, len(ranges))
	for _, r := range ranges {
		intervals = append(intervals, cover.Interval{ID: r.ID, Lo: r.Lo, Hi: r.Hi})
	}
	if _, err = l.tr.time(req, a, spanCoverGain, func() error { _, err := cover.CoverMaxGain(intervals, 0, geom.HalfPi); return err }); err != nil {
		return err
	}
	if _, err = l.tr.time(req, a, spanSweep, func() error {
		l.events, err = sweep.Sweep(d2, func(sweep.Event) bool { return true })
		return err
	}); err != nil {
		return err
	}
	plan, err := shard.NewPlan(d2, runtime.NumCPU(), shard.Contiguous)
	if err != nil {
		return err
	}
	var st shard.Stats
	if _, err = l.tr.time(req, so, spanShardMap, func() error {
		_, st, err = shard.Candidates(ctx, plan, k, shard.TopKRanges, shard.Options{Workers: runtime.NumCPU()})
		return err
	}); err != nil {
		return err
	}
	l.prune = append(l.prune, st.PruneRatio())
	return nil
}

func (l *ledgerRun) replayMDRC(ctx context.Context, dm *core.Dataset, k int, rng *rand.Rand) error {
	name, srv, svc, err := l.fresh(ctx, "lgmdrc", coldMDRC)
	if err != nil {
		return err
	}
	req := l.tr.request(kindMDRC)
	so, err := l.top(ctx, req, http.MethodGet, fmt.Sprintf("/v1/representative?dataset=%s&k=%d", name, k), nil, srv,
		func() error { _, err := svc.Representative(ctx, name, k, ""); return err },
		func() error { _, err := rrr.New(rrr.WithSeed(solverSeed)).Solve(ctx, dm, k); return err })
	if err != nil {
		return err
	}
	var res *algo.Result
	a, err := l.tr.time(req, so, spanMDRC, func() error { res, err = algo.MDRC(ctx, dm, k, algo.MDRCOptions{}); return err })
	if err != nil {
		return err
	}
	l.mdrc.Nodes += res.Stats.Nodes
	l.mdrc.Fallbacks += res.Stats.Fallbacks
	l.mdrc.TopKQueries += res.Stats.TopKQueries
	l.mdrc.CacheHits += res.Stats.CacheHits
	l.mdrcN++
	for i := 0; i < ledgerCalls/10; i++ {
		w := make([]float64, dm.Dims())
		for j := range w {
			w[j] = 0.05 + rng.Float64()
		}
		f := core.NewLinearFunc(w...)
		l.tr.time(req, a, spanTopK, func() error { topk.TopK(dm, f, k); return nil })
	}
	return nil
}

func (l *ledgerRun) replayMDRRR(ctx context.Context, dr *core.Dataset, k int) error {
	name, srv, svc, err := l.fresh(ctx, "lgmdrrr", coldMDRRR)
	if err != nil {
		return err
	}
	req := l.tr.request(kindMDRRR)
	solver := rrr.New(rrr.WithSeed(solverSeed), rrr.WithAlgorithm(rrr.AlgoMDRRR))
	so, err := l.top(ctx, req, http.MethodGet, fmt.Sprintf("/v1/representative?dataset=%s&k=%d&algo=mdrrr", name, k), nil, srv,
		func() error { _, err := svc.Representative(ctx, name, k, "mdrrr"); return err },
		func() error { _, err := solver.Solve(ctx, dr, k); return err })
	if err != nil {
		return err
	}
	sampler := kset.SampleOptions{Seed: solverSeed}
	a, err := l.tr.time(req, so, spanMDRRR, func() error {
		_, err := algo.MDRRR(ctx, dr, k, algo.MDRRROptions{Sampler: sampler})
		return err
	})
	if err != nil {
		return err
	}
	var coll *kset.Collection
	var st kset.SampleStats
	if _, err = l.tr.time(req, a, spanSample, func() error { coll, st, err = kset.Sample(ctx, dr, k, sampler); return err }); err != nil {
		return err
	}
	l.draws += st.Draws
	l.ksets += st.Distinct
	_, err = l.tr.time(req, a, spanHitting, func() error { _, err := cover.GreedyHittingSet(coll.Sets()); return err })
	return err
}

func (l *ledgerRun) replayBatch(ctx context.Context, d2 *core.Dataset, ks [batchWidth]int) error {
	name, srv, svc, err := l.fresh(ctx, "lgbatch", cold2D)
	if err != nil {
		return err
	}
	req := l.tr.request(kindBatch)
	items := make([]map[string]int, len(ks))
	queries := make([]service.BatchQuery, len(ks))
	reqs := make([]rrr.Request, len(ks))
	for i, k := range ks {
		items[i] = map[string]int{"k": k}
		queries[i] = service.BatchQuery{K: k}
		reqs[i] = rrr.Request{K: k}
	}
	body, err := json.Marshal(map[string]any{"dataset": name, "items": items})
	if err != nil {
		return err
	}
	var br *rrr.BatchResult
	_, err = l.top(ctx, req, http.MethodPost, "/v1/batch", body, srv,
		func() error { _, _, err := svc.Batch(ctx, name, "", queries); return err },
		func() error {
			br, err = rrr.New(rrr.WithSeed(solverSeed), rrr.WithBatchWorkers(runtime.GOMAXPROCS(0))).SolveBatch(ctx, d2, reqs)
			return err
		})
	if err != nil {
		return err
	}
	l.sweeps = append(l.sweeps, float64(br.Stats.Sweeps))
	return nil
}

// replayWarm times the cached-hit and rank-probe paths in process on the
// warm-read keys: ServeHTTP and the Service call, each ledgerCalls times.
func (l *ledgerRun) replayWarm(ctx context.Context, rng *rand.Rand) error {
	plan := newWarmPlan(l.b.seed)
	svc := l.b.newService(false)
	srv := service.NewServer(svc)
	for name, spec := range map[string]dataSpec{"w2d": warm2D, "wmd": warmMD} {
		if _, err := svc.Registry().Generate(name, spec.kind, spec.n, spec.dims, spec.seed); err != nil {
			return err
		}
	}
	// Warm the keys the sample touches; the first GET attaches the
	// pre-marshaled body, as the workload's warm-up does.
	ids := map[int][]int{}
	for i := 0; i < 8; i++ {
		op := plan.next()
		key := plan.keys[op.key]
		if _, ok := ids[op.key]; ok {
			continue
		}
		rep, err := svc.Representative(ctx, key.dataset, key.k, "")
		if err != nil {
			return err
		}
		ids[op.key] = rep.IDs
		if err := serve(srv, http.MethodGet, repPath(key), nil); err != nil {
			return err
		}
	}
	var out service.Representative
	for i := 0; i < ledgerCalls; i++ {
		op := plan.next()
		if _, ok := ids[op.key]; !ok {
			continue
		}
		key := plan.keys[op.key]
		req := l.tr.request(kindRep)
		h, err := l.tr.time(req, 0, layerHTTP, func() error { return serve(srv, http.MethodGet, repPath(key), nil) })
		if err != nil {
			return err
		}
		if _, err := l.tr.time(req, h, layerService, func() error { return svc.RepresentativeInto(ctx, key.dataset, key.k, "", &out) }); err != nil {
			return err
		}
	}
	for i := 0; i < ledgerCalls/10; i++ {
		op := plan.next()
		k, ok := ids[op.key]
		if !ok {
			continue
		}
		key := plan.keys[op.key]
		w := make([]float64, key.dims)
		for j := range w {
			w[j] = 0.05 + rng.Float64()
		}
		req := l.tr.request(kindRank)
		h, err := l.tr.time(req, 0, layerHTTP, func() error { return serve(srv, http.MethodGet, rankPath(key, k, w), nil) })
		if err != nil {
			return err
		}
		if _, err := l.tr.time(req, h, layerService, func() error { _, err := svc.RankRegretOf(key.dataset, k, w); return err }); err != nil {
			return err
		}
	}
	return nil
}

// churnBatches rebuilds the first ledgerMutations batches of the churn
// stream, deletes resolved against the live IDs as the workload does.
func churnBatches(seed int64) ([]delta.Batch, error) {
	ops, err := newChurnOps(seed, 4*time.Duration(ledgerMutations)*time.Second/churnMutRate)
	if err != nil {
		return nil, err
	}
	live := make([]int, churnData.n)
	for i := range live {
		live[i] = i
	}
	next := churnData.n
	var out []delta.Batch
	for _, op := range ops {
		if !op.mutate || len(out) == ledgerMutations {
			continue
		}
		if op.row != nil {
			out = append(out, delta.Batch{Append: [][]float64{op.row}})
			live = append(live, next)
			next++
			continue
		}
		i := int(op.pick % uint32(len(live)))
		out = append(out, delta.Batch{Delete: []int{live[i]}})
		live = append(live[:i], live[i+1:]...)
	}
	return out, nil
}

// replayChurn times the mutation path in process: ServeHTTP, Service.Mutate
// (with one watch subscriber), the maintainer, the pool classification,
// the WAL append under the shipped fsync policy and the watch publish.
func (l *ledgerRun) replayChurn(ctx context.Context) error {
	table, data, err := churnData.load()
	if err != nil {
		return err
	}
	batches, err := churnBatches(l.b.seed)
	if err != nil {
		return err
	}
	for _, k := range churnKs {
		// What the daemon's recurse phase does on this workload: an MDRC
		// solve of the churn data (a recompute after a stale batch).
		req := l.tr.request(kindRecompute)
		if _, err := l.tr.time(req, 0, spanMDRC, func() error { _, err := algo.MDRC(ctx, data, k, algo.MDRCOptions{}); return err }); err != nil {
			return err
		}
		req = l.tr.request("pool")
		if _, err := l.tr.time(req, 0, spanBuildPool, func() error { _, err := delta.BuildPool(ctx, data, k); return err }); err != nil {
			return err
		}
		pl, err := shard.NewPlan(data, 1, shard.Contiguous)
		if err != nil {
			return err
		}
		if _, err := l.tr.time(req, 0, spanDominance, func() error {
			_, _, err := shard.Candidates(ctx, pl, k, shard.Dominance, shard.Options{})
			return err
		}); err != nil {
			return err
		}
	}

	// Handler and Service, each on its own service with the cached keys
	// solved and one watcher, as the workload's daemon has them.
	svcHTTP, stopHTTP, err := l.churnService(ctx, table)
	if err != nil {
		return err
	}
	defer stopHTTP()
	svc, stopSvc, err := l.churnService(ctx, table)
	if err != nil {
		return err
	}
	defer stopSvc()
	srv := service.NewServer(svcHTTP)

	log, err := delta.NewLog(table, 1)
	if err != nil {
		return err
	}
	maint := delta.NewMaintainer()
	walDir, err := os.MkdirTemp(l.b.dir, "wal-")
	if err != nil {
		return err
	}
	store, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer store.Close()
	hub := watch.NewHub(watch.Options{})
	topic := watch.Topic{Dataset: "churn", K: churnWatchK, Algo: string(rrr.AlgoMDRC)}
	hsub, err := hub.Subscribe(topic, func(watch.Event) error { return nil })
	if err != nil {
		return err
	}
	hsub.Start(nil)
	defer hsub.Cancel()
	gen := int64(1)

	for _, batch := range batches {
		req := l.tr.request(kindMutate)
		path, payload := "/v1/datasets/churn/append", map[string]any{"rows": batch.Append}
		if batch.Append == nil {
			path, payload = "/v1/datasets/churn/delete", map[string]any{"ids": batch.Delete}
		}
		body, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		h, err := l.tr.time(req, 0, layerHTTP, func() error { return serve(srv, http.MethodPost, path, body) })
		if err != nil {
			return err
		}
		s, err := l.tr.time(req, h, layerService, func() error { _, err := svc.Mutate(ctx, "churn", batch); return err })
		if err != nil {
			return err
		}
		prev := gen
		ch, err := log.Apply(batch, func() int64 { gen++; return gen }, nil)
		if err != nil {
			return err
		}
		a, err := l.tr.time(req, s, spanApply, func() error { _, err := maint.Apply(ctx, ch, churnKs); return err })
		if err != nil {
			return err
		}
		if !ch.Rescaled {
			for _, k := range churnKs {
				pool, err := delta.BuildPool(ctx, ch.Before, k)
				if err != nil {
					return err
				}
				l.tr.time(req, a, spanClassify, func() error { pool.Classify(ch); return nil })
			}
		}
		rec := wal.Record{Dataset: "churn", PrevGen: prev, Gen: gen, Append: batch.Append, Delete: batch.Delete}
		var n int
		if _, err := l.tr.time(req, s, spanWAL, func() error { n, err = store.Append(rec); return err }); err != nil {
			return err
		}
		l.walSize = append(l.walSize, float64(n))
		ev := watch.Event{Type: watch.TypeGeneration, Gen: gen, PrevGen: prev, Data: []byte(`{"class":"still_exact"}`)}
		l.tr.time(req, s, spanPublish, func() error { hub.Publish(topic, ev); return nil })
	}
	return nil
}

// churnService builds an in-process service holding the churn data with
// the workload's keys solved and one watch subscriber; stop ends both.
func (l *ledgerRun) churnService(ctx context.Context, table *dataset.Table) (*service.Service, func(), error) {
	svc := l.b.newService(true)
	if _, err := svc.Registry().Register("churn", table); err != nil {
		return nil, nil, err
	}
	for _, k := range churnKs {
		if _, err := svc.Representative(ctx, "churn", k, ""); err != nil {
			return nil, nil, err
		}
	}
	sub, pre, err := svc.Watch(ctx, service.WatchRequest{Dataset: "churn", K: churnWatchK}, func(watch.Event) error { return nil })
	if err != nil {
		return nil, nil, err
	}
	sub.Start(pre)
	return svc, func() {
		sub.Cancel()
		svc.CloseWatchers("ledger done")
	}, nil
}

// socketHits measures closed-loop cached hits over the real socket.
func (l *ledgerRun) socketHits(ctx context.Context) ([]float64, error) {
	if err := l.d.register(ctx, "lghit", warm2D); err != nil {
		return nil, err
	}
	path := "/v1/representative?dataset=lghit&k=50"
	if _, err := l.d.do(ctx, http.MethodGet, path, nil, nil); err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < ledgerCalls; i++ {
		start := time.Now()
		if _, err := l.d.do(ctx, http.MethodGet, path, nil, nil); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(start)))
	}
	return out, nil
}

func medianOf(ds []time.Duration, unit time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(unit)
	}
	return median(v)
}

// ledger is the traced run's second half: it replays a seeded sample of
// requests down the stack in process, records one span per layer, and
// reports the per-layer rows, the self-time table, the daemon-phase
// cross-check and the cold 2-D attribution table.
func (b *bench) ledger(ctx context.Context, d *daemon, ws workloadState) error {
	tr := b.tr
	l := &ledgerRun{b: b, d: d, tr: tr}
	rng := rand.New(rand.NewSource(b.seed*7919 + 17))
	plan := newColdPlan(b.seed)
	_, d2, err := cold2D.load()
	if err != nil {
		return err
	}
	_, dm, err := coldMDRC.load()
	if err != nil {
		return err
	}
	_, dr, err := coldMDRRR.load()
	if err != nil {
		return err
	}
	for _, slot := range rng.Perm(coldSlots)[:ledgerSamples] {
		if err := l.replay2D(ctx, d2, plan.ks2D[slot]); err != nil {
			return err
		}
		if err := l.replayMDRC(ctx, dm, plan.ksMDRC[slot], rng); err != nil {
			return err
		}
		if err := l.replayMDRRR(ctx, dr, plan.ksMDRRR[slot]); err != nil {
			return err
		}
		if err := l.replayBatch(ctx, d2, plan.batches[slot]); err != nil {
			return err
		}
	}
	if err := l.replayWarm(ctx, rng); err != nil {
		return err
	}
	if err := l.replayChurn(ctx); err != nil {
		return err
	}
	hits, err := l.socketHits(ctx)
	if err != nil {
		return err
	}

	med := func(name, kind string, unit time.Duration) float64 { return medianOf(tr.durations(name, kind), unit) }
	set := b.set
	set("sweep.find_ranges_ms", "ms", med(spanFindRanges, "", time.Millisecond))
	set("sweep.events", "count", float64(l.events))
	set("cover.max_gain_us", "us", med(spanCoverGain, "", time.Microsecond))
	set("algo.twodrrr_ms", "ms", med(spanTwoD, "", time.Millisecond))
	set("topk.topk_us", "us", med(spanTopK, "", time.Microsecond))
	set("algo.mdrc_ms", "ms", med(spanMDRC, kindMDRC, time.Millisecond))
	set("algo.mdrc_nodes", "count", float64(l.mdrc.Nodes)/float64(l.mdrcN))
	set("algo.mdrc_fallbacks", "count", float64(l.mdrc.Fallbacks))
	// TopKQueries counts only the corner scans actually computed, so the
	// share of corner lookups the memo answered is hits over both.
	set("algo.mdrc_memo_hit_ratio", "ratio", ratio(l.mdrc.CacheHits, l.mdrc.CacheHits+l.mdrc.TopKQueries))
	set("kset.sample_ms", "ms", med(spanSample, "", time.Millisecond))
	set("kset.draws_per_kset", "ratio", ratio(l.draws, l.ksets))
	set("cover.hitting_set_us", "us", med(spanHitting, "", time.Microsecond))
	set("algo.mdrrr_ms", "ms", med(spanMDRRR, "", time.Millisecond))
	set("rrr.solve_2drrr_ms", "ms", med(layerSolver, kind2D, time.Millisecond))
	set("rrr.solve_mdrc_ms", "ms", med(layerSolver, kindMDRC, time.Millisecond))
	set("rrr.solve_mdrrr_ms", "ms", med(layerSolver, kindMDRRR, time.Millisecond))
	set("rrr.batch_ms", "ms", med(layerSolver, kindBatch, time.Millisecond))
	set("rrr.batch_sweeps", "count", mean(l.sweeps))
	set("shard.map_ms", "ms", med(spanShardMap, "", time.Millisecond))
	set("shard.prune_ratio", "ratio", mean(l.prune))
	set("service.miss_ms", "ms", geomean(med(layerService, kind2D, time.Millisecond),
		med(layerService, kindMDRC, time.Millisecond), med(layerService, kindMDRRR, time.Millisecond)))
	set("service.computations", "count", float64(ws.cnt.computations))
	set("service.hit_us", "us", med(layerService, kindRep, time.Microsecond))
	set("service.rank_regret_us", "us", med(layerService, kindRank, time.Microsecond))
	httpHit := med(layerHTTP, kindRep, time.Microsecond)
	set("service.http.hit_us", "us", httpHit)
	set("service.http.rank_us", "us", med(layerHTTP, kindRank, time.Microsecond))
	set("rrrd.socket_us", "us", median(hits)-httpHit)
	set("service.hit_ratio", "ratio", ratio(int(ws.cnt.hits), int(ws.cnt.hits+ws.cnt.misses)))
	set("rrrd.gc_pause_ms", "ms", ws.cnt.gcPauseMS)
	late, backlog := 0.0, 0
	if len(ws.steps) > 0 {
		late, backlog = ws.steps[0].lateP99, ws.steps[0].backlog
	}
	set("loadgen.late_p99_ms", "ms", late)
	set("loadgen.backlog", "count", float64(backlog))
	set("wal.append_us", "us", med(spanWAL, "", time.Microsecond))
	if ws.cnt.walAppends > 0 {
		set("wal.bytes_per_batch", "bytes", float64(ws.cnt.walBytes)/float64(ws.cnt.walAppends))
	} else {
		set("wal.bytes_per_batch", "bytes", mean(l.walSize))
	}
	set("delta.classify_us", "us", med(spanClassify, "", time.Microsecond))
	set("delta.apply_us", "us", med(spanApply, "", time.Microsecond))
	set("delta.build_pool_ms", "ms", med(spanBuildPool, "", time.Millisecond))
	set("shard.dominance_ms", "ms", med(spanDominance, "", time.Millisecond))
	c := ws.cnt
	set("delta.still_exact_ratio", "ratio", ratio(int(c.revalidated), int(c.revalidated+c.repaired+c.recomputed)))
	set("delta.repaired", "count", float64(c.repaired))
	set("delta.recomputed", "count", float64(c.recomputed))
	set("service.mutate_ms", "ms", med(layerService, kindMutate, time.Millisecond))
	set("service.http.mutate_ms", "ms", med(layerHTTP, kindMutate, time.Millisecond))
	set("watch.publish_us", "us", med(spanPublish, "", time.Microsecond))
	set("watch.dropped", "count", float64(c.watchDropped))

	section("per-layer ledger (outside-in timings; medians)")
	for _, name := range perLayer {
		m := b.metrics[name]
		row(name, m.Unit, m.Value, "")
	}
	b.selfTimes()
	b.crossCheck(ws.cnt, ws.churn)
	b.attribution(ws.coldP50)
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// chains lists, per request type, the layers a replayed request passes
// through, top first.
var chains = []struct {
	kind   string
	layers []string
}{
	{kind2D, []string{layerSocket, layerHTTP, layerService, layerSolver, spanTwoD, spanFindRanges}},
	{kindMDRC, []string{layerSocket, layerHTTP, layerService, layerSolver, spanMDRC}},
	{kindMDRRR, []string{layerSocket, layerHTTP, layerService, layerSolver, spanMDRRR, spanSample}},
	{kindBatch, []string{layerSocket, layerHTTP, layerService, layerSolver}},
	{kindRep, []string{layerSocket, layerHTTP, layerService}},
	{kindRank, []string{layerSocket, layerHTTP, layerService}},
	{kindMutate, []string{layerSocket, layerHTTP, layerService, spanApply}},
}

// replays returns, per replayed request of the given type, the summed
// duration in ms of each of its layers. Workload traffic (a socket span
// alone) is left out: self times compare layers on the same input.
func (t *tracer) replays(kind string) []map[string]float64 {
	byReq := map[int]map[string]float64{}
	for _, s := range t.spans {
		if s.Kind != kind {
			continue
		}
		if byReq[s.Req] == nil {
			byReq[s.Req] = map[string]float64{}
		}
		byReq[s.Req][s.Name] += ms(s.dur())
	}
	var out []map[string]float64
	for _, m := range byReq {
		if _, ok := m[layerHTTP]; ok {
			out = append(out, m)
		}
	}
	return out
}

// selfTimes prints each request type's layers, top first, with the median
// duration and the median self time: the layer's duration minus the next
// layer's on the same replayed request. A negative self time means the
// layer costs less than the run-to-run spread of the one beneath it. Warm
// and churn requests are replayed from the handler down; their socket
// figure is the workload's traced half, less the handler's median.
func (b *bench) selfTimes() {
	section("self time by layer: median ms (self ms), top of the stack first")
	for _, ch := range chains {
		reqs := b.tr.replays(ch.kind)
		if len(reqs) == 0 {
			continue
		}
		var parts []string
		for i, layer := range ch.layers {
			var dur, self []float64
			for _, m := range reqs {
				d, ok := m[layer]
				if !ok {
					continue
				}
				dur = append(dur, d)
				if i+1 < len(ch.layers) {
					if next, ok := m[ch.layers[i+1]]; ok {
						d -= next
					}
				}
				self = append(self, d)
			}
			if layer == layerSocket && len(dur) == 0 {
				traffic := b.tr.durations(layerSocket, ch.kind)
				if len(traffic) == 0 {
					continue
				}
				var next []float64
				for _, m := range reqs {
					next = append(next, m[layerHTTP])
				}
				sock := medianOf(traffic, time.Millisecond)
				dur, self = []float64{sock}, []float64{sock - median(next)}
			}
			if len(dur) == 0 {
				continue
			}
			parts = append(parts, fmt.Sprintf("%s %.4f (%.4f)", layer, median(dur), median(self)))
		}
		fmt.Printf("  %-7s n=%-4d %s\n", ch.kind, len(reqs), strings.Join(parts, " > "))
	}
}

// crossCheck prints each daemon solve phase (rrrd_solve_phase_seconds
// mean over the workload's timed phase) beside the outside-in row it
// should match. On churn the daemon's recurse phase solves the churn data,
// so it is matched with the ledger's MDRC solves of that data instead.
func (b *bench) crossCheck(c counterDelta, churn bool) {
	section("daemon phase vs outside-in row")
	pairs := []struct{ phase, row, note string }{
		{"sweep", "algo.twodrrr_ms", "the daemon's sweep span wraps all of 2DRRR"},
		{"recurse", "algo.mdrc_ms", ""},
		{"sample", "algo.mdrrr_ms", ""},
		{"wal_append", "wal.append_us", ""},
		{"publish", "watch.publish_us", ""},
		{"delta_repair", "", "printed on its own"},
	}
	for _, p := range pairs {
		daemonMS, ok := c.phaseMeanMS[p.phase]
		if !ok {
			fmt.Printf("  %-12s  no such phase in this workload's traffic\n", p.phase)
			continue
		}
		if p.row == "" {
			fmt.Printf("  %-12s daemon %.4f ms  %s\n", p.phase, daemonMS, p.note)
			continue
		}
		m := b.metrics[p.row]
		rowMS := m.Value
		if m.Unit == "us" {
			rowMS /= 1e3
		}
		if churn && p.phase == "recurse" {
			p.row = "algo.MDRC on churn data"
			rowMS = medianOf(b.tr.durations(spanMDRC, kindRecompute), time.Millisecond)
		}
		fmt.Printf("  %-12s daemon %.4f ms  %-18s %.4f ms  ratio %.3f  %s\n", p.phase, daemonMS, p.row, rowMS, daemonMS/rowMS, p.note)
	}
}

// attribution prints how the layer self times of the replayed cold 2-D
// requests (medians) add up to the workload's cold_2drrr_ms.
func (b *bench) attribution(coldP50 map[string]float64) {
	reqs := b.tr.replays(kind2D)
	section(fmt.Sprintf("cold 2-D attribution (median self time over %d replayed requests, ms)", len(reqs)))
	self := func(f func(m map[string]float64) float64) float64 {
		var v []float64
		for _, m := range reqs {
			v = append(v, f(m))
		}
		return median(v)
	}
	layers := []struct {
		name string
		v    float64
	}{
		{"kernels: sweep.FindRanges + cover.CoverMaxGain", self(func(m map[string]float64) float64 { return m[spanFindRanges] + m[spanCoverGain] })},
		{"algo.TwoDRRR self", self(func(m map[string]float64) float64 { return m[spanTwoD] - m[spanFindRanges] - m[spanCoverGain] })},
		{"rrr.Solver self", self(func(m map[string]float64) float64 { return m[layerSolver] - m[spanTwoD] })},
		{"service.Service self", self(func(m map[string]float64) float64 { return m[layerService] - m[layerSolver] })},
		{"service.Server.ServeHTTP self", self(func(m map[string]float64) float64 { return m[layerHTTP] - m[layerService] })},
		{"socket + rrrd process self", self(func(m map[string]float64) float64 { return m[layerSocket] - m[layerHTTP] })},
	}
	sum := 0.0
	for _, l := range layers {
		sum += l.v
		fmt.Printf("  %-48s %10.4f\n", l.name, l.v)
	}
	fmt.Printf("  %-48s %10.4f\n", "sum of self times", sum)
	if e2e, ok := coldP50[kind2D]; ok {
		fmt.Printf("  %-48s %10.4f\n", "cold_2drrr_ms (untraced median)", e2e)
		fmt.Printf("  %-48s %10.4f  (%.1f%%)\n", "unattributed remainder", e2e-sum, 100*(e2e-sum)/e2e)
	} else {
		fmt.Printf("  %-48s %10s  (cold_2drrr_ms comes from a cold-solve run)\n", "unattributed remainder", "n/a")
	}
}
