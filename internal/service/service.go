// Package service is the serving layer of the RRR reproduction: it wraps
// the batch library (one long-lived rrr.Solver per algorithm and the
// internal/eval estimators) behind a dataset registry, a keyed
// precomputation cache with singleflight semantics, and the JSON/HTTP
// handlers the rrrd daemon mounts.
//
// The paper's workload is precompute-once, serve-many: a 10-tuple
// representative of a flight database answers "show me a top-100 flight"
// for *every* linear preference vector, so the expensive solve happens once
// per (dataset, k, algorithm) and every subsequent request is a map lookup.
// The cache enforces exactly that: concurrent requests for the same key
// share one computation (the first request leads, the rest block on its
// completion), distinct keys compute independently, and failed computations
// are evicted so transient errors don't stick.
//
// Layering: Registry (named datasets) and Cache (keyed singleflight) are
// independent of HTTP; Service composes them with the solver facade; Server
// (http.go) is a thin JSON adapter over Service. Later scaling PRs
// (sharding the registry, batching rank probes) slot in behind the Service
// API without touching the handlers.
package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rrr"
	"rrr/internal/delta"
	"rrr/internal/trace"
	"rrr/internal/wal"
	"rrr/internal/watch"
)

// Sentinel error kinds the HTTP layer maps to status codes. Errors wrap
// one of these; everything else falls through to the solver's typed
// *rrr.Error hierarchy (canceled / budget exhausted / infeasible), and
// anything still unclassified is a 500.
var (
	// ErrNotFound marks lookups of unregistered datasets or tuple IDs.
	ErrNotFound = errors.New("not found")
	// ErrBadRequest marks malformed client input (weights, names, params).
	ErrBadRequest = errors.New("bad request")
	// ErrConflict marks attempts to re-register an existing dataset name.
	ErrConflict = errors.New("conflict")
)

// Config tunes a Service.
type Config struct {
	// Seed drives the randomized components: MDRRR's k-set sampling and
	// the regret estimator.
	Seed int64
	// SolverOptions is extra solver tuning applied to every computation
	// (e.g. rrr.WithNodeBudget to bound the worst-case solve the daemon
	// will attempt). Each algorithm's long-lived Solver is built from
	// these options followed by the seed and the algorithm, so the
	// algorithm always wins.
	SolverOptions []rrr.Option
	// MaxConcurrentSolves bounds simultaneously running computations
	// (<= 0 defaults to GOMAXPROCS).
	MaxConcurrentSolves int
	// DeltaMaintenance attaches a mutation log to every registered
	// dataset and enables Mutate (and the daemon's append/delete
	// endpoints): mutation batches advance datasets generation by
	// generation, and the log's maintainer classifies every cached answer
	// as still-exact (re-keyed to the new generation), repaired (reduce
	// phase re-run on the patched candidate pool), or recomputed
	// (invalidated; recomputed lazily on next request).
	DeltaMaintenance bool
	// Watch enables the live-update push subsystem (DESIGN.md §10):
	// Service.Watch (and the daemon's GET /v1/watch SSE endpoint) streams
	// a snapshot and then per-batch events — generation heartbeats for
	// still-exact answers, representative pushes for repaired or
	// recomputed ones — per watched (dataset, k, algo) topic. Pointless
	// without DeltaMaintenance: nothing else produces events.
	Watch bool
	// WatchBuffer is the per-subscriber event ring capacity (<= 0 = 64).
	// A subscriber falling more than this many events behind is dropped
	// with a terminal overflow event rather than slowing anything down.
	WatchBuffer int
	// WatchMaxSubscribers caps concurrently open watch streams across all
	// topics (0 = unlimited); excess subscriptions are refused.
	WatchMaxSubscribers int
}

// Validate checks the parallelism knob the Config owns: zero stays "auto"
// (GOMAXPROCS), negatives are configuration errors. The daemon calls it
// before New so a bad flag fails startup with the knob named.
func (c Config) Validate() error {
	if c.MaxConcurrentSolves < 0 {
		return fmt.Errorf("service: max concurrent solves must be positive or 0 (auto: GOMAXPROCS), got %d", c.MaxConcurrentSolves)
	}
	return nil
}

// Service glues registry, cache, metrics and the solver facade together.
// It is the transport-independent core of the daemon; Server adapts it to
// HTTP, and tests drive it directly.
type Service struct {
	registry *Registry
	cache    *Cache
	metrics  *Metrics
	cfg      Config
	// store is the durability layer (persist.go); nil for a memory-only
	// service, the historical behavior.
	store *wal.Store
	// solvers holds one long-lived Solver per resolved algorithm, in
	// solverAlgos order, each built on its first use (solverFor): every
	// miss, batch, repair and watch recompute runs on it, so its arenas
	// stay warm across requests, and a service that never solves — a
	// recovery boot — builds none.
	solverMu sync.Mutex
	solvers  [len(solverAlgos)]*rrr.Solver

	// hub is the live-update event hub (nil when Config.Watch is off).
	// watchCtx governs watch-triggered recompute solves; CloseWatchers
	// cancels it, so shutdown doesn't wait on pushes nobody will receive.
	hub         *watch.Hub
	watchCtx    context.Context
	watchCancel context.CancelFunc
}

// New builds a Service with an empty registry and cache.
func New(cfg Config) *Service {
	m := NewMetrics()
	s := &Service{
		registry: NewRegistry(),
		cache:    NewCache(m, cfg.MaxConcurrentSolves),
		metrics:  m,
		cfg:      cfg,
	}
	if cfg.DeltaMaintenance {
		s.registry.EnableDeltaMaintenance()
	}
	if cfg.Watch {
		s.hub = watch.NewHub(watch.Options{
			Buffer:         cfg.WatchBuffer,
			MaxSubscribers: cfg.WatchMaxSubscribers,
			Counters:       m,
		})
		s.watchCtx, s.watchCancel = context.WithCancel(context.Background())
	}
	return s
}

// solverAlgos are the resolved algorithms the service keeps a Solver for.
var solverAlgos = [...]rrr.Algorithm{rrr.Algo2DRRR, rrr.AlgoMDRRR, rrr.AlgoMDRC}

// solverFor returns the long-lived Solver of a resolved algorithm,
// building it on first use from the base options, then the seed and the
// algorithm (last wins, so an option can never un-pin it). It returns nil
// for any other name.
func (s *Service) solverFor(algo rrr.Algorithm) *rrr.Solver {
	i := slices.Index(solverAlgos[:], algo)
	if i < 0 {
		return nil
	}
	s.solverMu.Lock()
	defer s.solverMu.Unlock()
	if s.solvers[i] == nil {
		opts := append(slices.Clone(s.cfg.SolverOptions), rrr.WithSeed(s.cfg.Seed), rrr.WithAlgorithm(algo))
		s.solvers[i] = rrr.New(opts...)
	}
	return s.solvers[i]
}

// Registry exposes the dataset registry for preloading and tests.
func (s *Service) Registry() *Registry { return s.registry }

// Metrics exposes the operational counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// RemoveDataset unregisters a dataset and invalidates its cached results;
// its delta maintenance state goes with its log.
func (s *Service) RemoveDataset(name string) bool {
	ok := s.registry.Remove(name)
	if ok {
		s.cache.InvalidateDataset(name)
		if s.hub != nil {
			s.hub.CloseDataset(name, closingEvent("dataset removed"))
		}
	}
	return ok
}

// MutationStats tallies what one mutation batch did to the dataset's
// cached answers.
type MutationStats struct {
	// Revalidated counts cached answers proven still exact and re-keyed
	// to the new generation — the next request for them is a cache hit,
	// never a recompute.
	Revalidated int
	// Repaired counts cached answers re-derived by running only the
	// reduce phase on the patched candidate pool.
	Repaired int
	// Recomputed counts cached answers invalidated as stale; the full
	// recompute happens lazily on the next request for them.
	Recomputed int
}

// Mutation is the outcome of one applied batch.
type Mutation struct {
	Dataset string
	// Gen is the dataset's generation after the batch.
	Gen int64
	// N and Dims describe the mutated dataset.
	N, Dims int
	// Tuples is the per-tuple status report, deletes first.
	Tuples []delta.TupleStatus
	// Stats tallies the cache maintenance the batch triggered.
	Stats MutationStats
}

// Mutate applies one append/delete batch to the named dataset and runs
// containment-based maintenance over its cached answers: entries proven
// still exact are re-keyed to the new generation (so the cache revalidates
// across generations instead of always missing), cheaply repairable
// entries are re-solved on just the patched candidate pool, and stale
// entries are dropped for lazy recompute. Requires Config.DeltaMaintenance.
//
// ctx bounds the maintenance work (pool building and repair solves), not
// the mutation itself: by the time maintenance runs the batch is applied,
// and a canceled context merely degrades classifications to stale.
func (s *Service) Mutate(ctx context.Context, name string, b delta.Batch) (*Mutation, error) {
	if !s.cfg.DeltaMaintenance {
		return nil, fmt.Errorf("service: delta maintenance is disabled (start rrrd with -delta): %w", ErrBadRequest)
	}
	cur, ch, err := s.registry.Mutate(ctx, name, b)
	if err != nil {
		return nil, err
	}
	s.metrics.add(deltaMutations, 1)
	s.metrics.add(deltaMutatedTuples, len(ch.Inserted)+len(ch.Deleted))
	stats, classes := s.maintain(ctx, cur, ch)
	s.metrics.add(deltaRevalidated, stats.Revalidated)
	s.metrics.add(deltaRepaired, stats.Repaired)
	s.metrics.add(deltaRecomputed, stats.Recomputed)
	// The watch fan-out is part of the commit's critical path; give it
	// its own span so a traced mutation shows how much of its latency
	// went to notifying subscribers (trace export itself never appears
	// here — Enqueue is non-blocking by contract).
	rec, parent := trace.FromContext(ctx)
	sid := rec.Start("publish", parent)
	s.publishWatch(cur, ch, classes)
	rec.End(sid)
	return &Mutation{
		Dataset: name,
		Gen:     ch.Gen,
		N:       ch.After.N(),
		Dims:    ch.After.Dims(),
		Tuples:  ch.Statuses,
		Stats:   stats,
	}, nil
}

// maintain classifies every cached answer of the pre-batch generation
// (ch.PrevGen) and carries the survivors into ch.Gen. Dual (negative-K)
// entries are always recomputed: their answer is a search across many
// rank targets and no single pool bounds it.
//
// Each key's class is decided once, as what actually took effect: a key
// is still-exact only if its re-key lands (a request at the new
// generation may have raced ahead and claimed the key with its own
// computation), repaired only if the repair publishes, and recomputed
// otherwise. The tallies and the returned per-key map both derive from
// that one value; the map is the signal the watch hub needs to choose
// between a heartbeat, a push of the repaired answer, and a recompute.
func (s *Service) maintain(ctx context.Context, cur *Entry, ch *delta.Change) (MutationStats, map[Key]delta.Class) {
	var stats MutationStats
	var classes map[Key]delta.Class
	keys := s.cache.CompletedKeys(cur.Name, ch.PrevGen)
	if len(keys) != 0 {
		classes = make(map[Key]delta.Class, len(keys))
		ks := make([]int, 0, len(keys))
		for _, key := range keys {
			if key.K > 0 {
				ks = append(ks, key.K)
			}
		}
		// An interrupted maintenance (err) leaves outcomes nil, so every
		// cached answer is recomputed; the mutation itself already
		// succeeded. Dual keys are never classified.
		outcomes, _ := cur.Log.Maintainer().Apply(ctx, ch, ks)
		for _, key := range keys {
			newKey := key
			newKey.Gen = ch.Gen
			class := delta.Recomputed
			outcome, classified := outcomes[key.K]
			switch {
			case !classified:
			case outcome.Class == delta.StillExact && s.cache.Rekey(key, newKey):
				class = delta.StillExact
			case outcome.Class == delta.Repaired && s.repair(ctx, cur, newKey, outcome.Pool):
				class = delta.Repaired
			}
			classes[newKey] = class
			stats.count(class)
		}
	}
	// Whatever remains at the old generation is unreachable; sweep it.
	s.cache.InvalidateGeneration(cur.Name, ch.PrevGen)
	return stats, classes
}

// count tallies one key's effective class.
func (m *MutationStats) count(class delta.Class) {
	switch class {
	case delta.StillExact:
		m.Revalidated++
	case delta.Repaired:
		m.Repaired++
	default:
		m.Recomputed++
	}
}

// repair re-runs only the reduce phase — the cached entry's algorithm, on
// its long-lived solver, over the patched pool's repair input — and
// publishes the result under the new-generation key. Because the pool
// provably contains every k-set member of the mutated dataset, the
// deterministic algorithms reproduce a fresh full solve bit for bit. A
// key whose algorithm has no solver (a warm-cache file can carry any
// name) fails the repair and is recomputed. Reports whether the repair
// was published.
func (s *Service) repair(ctx context.Context, cur *Entry, key Key, pool *delta.Pool) bool {
	rec, parent := trace.FromContext(ctx)
	sid := rec.StartShard("delta_repair", parent, key.K)
	defer rec.End(sid)
	solver := s.solverFor(rrr.Algorithm(key.Algo))
	if solver == nil {
		return false
	}
	data, err := pool.RepairData(cur.Data)
	if err != nil {
		return false
	}
	start := time.Now()
	res, err := solver.Solve(ctx, data, key.K)
	if err != nil {
		return false
	}
	stats := ResultStats{KSets: res.KSets, Nodes: res.Nodes, Candidates: pool.Len()}
	return s.cache.Put(key, res.IDs, stats, time.Since(start))
}

// resolveAlgo parses and resolves a request's algorithm name against the
// dataset's dimensionality, rejecting mismatches as client mistakes
// before they reach the solver (and the failure metrics) as 500s.
// Representative and Batch share this single source of truth.
func resolveAlgo(entry *Entry, algoName string) (rrr.Algorithm, error) {
	algo, err := rrr.ParseAlgorithm(algoName)
	if err != nil {
		return "", fmt.Errorf("%w: %w", err, ErrBadRequest)
	}
	algo = algo.Resolve(entry.Data.Dims())
	switch dims := entry.Data.Dims(); {
	case algo == rrr.Algo2DRRR && dims != 2:
		return "", fmt.Errorf("service: 2drrr requires a 2-D dataset; %q has %d attributes: %w", entry.Name, dims, ErrBadRequest)
	case algo != rrr.Algo2DRRR && dims < 2:
		return "", fmt.Errorf("service: %s requires at least 2 attributes; %q has %d: %w", algo, entry.Name, dims, ErrBadRequest)
	}
	return algo, nil
}

// Representative is a served representative: the cached solver output plus
// provenance.
type Representative struct {
	Dataset   string
	K         int
	Algorithm rrr.Algorithm
	CachedResult
}

// Representative returns the rank-regret representative of the named
// dataset for target k under the named algorithm ("" = auto), computing it
// on first request and serving it from cache afterwards. Concurrent first
// requests share one computation.
//
// ctx is this *request's* context: it bounds how long the caller waits,
// not how long the computation may run. The computation is detached from
// any single request and is canceled only when every request waiting on
// it has gone (see Cache.Do).
func (s *Service) Representative(ctx context.Context, name string, k int, algoName string) (*Representative, error) {
	out := new(Representative)
	if err := s.RepresentativeInto(ctx, name, k, algoName, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RepresentativeInto is Representative writing into a caller-owned struct:
// a cache hit fills out without allocating, so a steady-state caller
// recycling one Representative serves warm keys allocation-free. Same
// semantics otherwise; out must be non-nil.
func (s *Service) RepresentativeInto(ctx context.Context, name string, k int, algoName string, out *Representative) error {
	if out == nil {
		return fmt.Errorf("service: nil representative: %w", ErrBadRequest)
	}
	entry, err := s.registry.Get(name)
	if err != nil {
		return err
	}
	if k <= 0 {
		return fmt.Errorf("service: k must be positive, got %d: %w", k, ErrBadRequest)
	}
	algo, err := resolveAlgo(entry, algoName)
	if err != nil {
		return err
	}
	cached, err := s.solveEntry(ctx, entry, k, algo)
	if err != nil {
		return err
	}
	out.Dataset = name
	out.K = k
	out.Algorithm = algo
	out.CachedResult = cached
	return nil
}

// key maps a representative query onto the cache's key space.
func (s *Service) key(entry *Entry, k int, algo rrr.Algorithm) Key {
	return Key{Dataset: entry.Name, Gen: entry.Gen, K: k, Algo: string(algo)}
}

// solveEntry serves (computing on first demand) the representative of the
// entry's generation at (k, algo) through the singleflight cache — the
// shared solve path of Representative, watch snapshots, and
// watch-triggered recomputes. ctx bounds this caller's wait, not the
// computation (Cache.Do detaches it). Completed keys are answered by the
// cache's fast path before any closure is built.
func (s *Service) solveEntry(ctx context.Context, entry *Entry, k int, algo rrr.Algorithm) (CachedResult, error) {
	key := s.key(entry, k, algo)
	if res, ok := s.cache.Hit(key); ok {
		return res, nil
	}
	solver := s.solverFor(algo)
	return s.cache.Do(ctx, key, func(runCtx context.Context) ([]int, ResultStats, error) {
		res, err := solver.Solve(runCtx, entry.Data, k)
		if err != nil {
			return nil, ResultStats{}, fmt.Errorf("service: %s on %q (k=%d): %w", algo, entry.Name, k, err)
		}
		return res.IDs, ResultStats{KSets: res.KSets, Nodes: res.Nodes}, nil
	})
}

// maxBatchQueries bounds one /v1/batch request: enough for any realistic
// k-sweep, small enough that a single request cannot claim unbounded
// cache slots and solver work.
const maxBatchQueries = 256

// BatchQuery is one query of a batch request: a primal rank target
// (K > 0) or a dual size budget (Size > 0 with K == 0).
type BatchQuery struct {
	K    int
	Size int
}

// key maps a query onto the cache's key space: primal queries use K
// directly, dual queries use the negative size (see Key).
func (q BatchQuery) key(name string, gen int64, algo rrr.Algorithm) Key {
	if q.K > 0 {
		return Key{Dataset: name, Gen: gen, K: q.K, Algo: string(algo)}
	}
	return Key{Dataset: name, Gen: gen, K: -q.Size, Algo: string(algo)}
}

// keyLabel renders a key's query for error messages: "k=10" for primal
// keys, "size=5" for the negative-K dual encoding — clients must never
// see the internal negative k.
func keyLabel(key Key) string {
	if key.K < 0 {
		return fmt.Sprintf("size=%d", -key.K)
	}
	return fmt.Sprintf("k=%d", key.K)
}

// valid reports whether the query is well-formed; the reason wraps
// ErrBadRequest when not.
func (q BatchQuery) valid() error {
	switch {
	case q.K > 0 && q.Size > 0:
		return fmt.Errorf("service: query sets both k=%d and size=%d: %w", q.K, q.Size, ErrBadRequest)
	case q.K < 0:
		return fmt.Errorf("service: k must be positive, got %d: %w", q.K, ErrBadRequest)
	case q.Size < 0:
		return fmt.Errorf("service: size must be positive, got %d: %w", q.Size, ErrBadRequest)
	case q.K == 0 && q.Size == 0:
		return fmt.Errorf("service: empty query: set k or size: %w", ErrBadRequest)
	}
	return nil
}

// BatchItem is one query's outcome in a Batch response. Exactly one of
// Err and the result fields is meaningful.
type BatchItem struct {
	Query BatchQuery
	// K is the rank target the result satisfies (the achieved k for dual
	// queries).
	K int
	CachedResult
	Err error
}

// Batch answers many queries over one dataset in a single request. All
// queries not already cached are claimed in the cache as one key set and
// solved by a single rrr.SolveBatch computation, which executes the
// shared phases (the 2-D angular sweep, the K-SETr sampling stream) once
// for the whole set; queries already cached or in flight — including keys
// another running batch claimed — join the existing work. Dual size
// queries travel in the same computation and binary search in lockstep
// (see Key for how they share the key space).
//
// Per-query outcomes are independent: an infeasible k fails its item with
// the typed error while the rest of the batch answers normally. Like
// Representative, ctx bounds how long this caller waits, not how long the
// computation runs; the computation dies only when every waiter across
// all its keys has gone. The returned Algorithm is the resolved one the
// whole batch ran under.
func (s *Service) Batch(ctx context.Context, name string, algoName string, queries []BatchQuery) ([]BatchItem, rrr.Algorithm, error) {
	entry, err := s.registry.Get(name)
	if err != nil {
		return nil, "", err
	}
	if len(queries) == 0 {
		return nil, "", fmt.Errorf("service: empty batch: %w", ErrBadRequest)
	}
	if len(queries) > maxBatchQueries {
		return nil, "", fmt.Errorf("service: batch of %d queries exceeds the %d limit: %w",
			len(queries), maxBatchQueries, ErrBadRequest)
	}
	algo, err := resolveAlgo(entry, algoName)
	if err != nil {
		return nil, "", err
	}

	items := make([]BatchItem, len(queries))
	var keys []Key
	queryByKey := make(map[Key]BatchQuery)
	for i, q := range queries {
		items[i].Query = q
		if err := q.valid(); err != nil {
			items[i].Err = err
			continue
		}
		key := q.key(name, entry.Gen, algo)
		if _, dup := queryByKey[key]; !dup {
			queryByKey[key] = q
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		return items, algo, nil
	}

	solver := s.solverFor(algo)
	data := entry.Data
	results, errs := s.cache.DoBatch(ctx, keys, func(runCtx context.Context, owned []Key, fill BatchFill) {
		reqs := make([]rrr.Request, len(owned))
		for i, key := range owned {
			q := queryByKey[key]
			reqs[i] = rrr.Request{K: q.K, Size: q.Size}
		}
		br, err := solver.SolveBatch(runCtx, data, reqs)
		if err != nil {
			err = fmt.Errorf("service: batch %s on %q: %w", algo, name, err)
			for _, key := range owned {
				fill(key, nil, ResultStats{}, err)
			}
			return
		}
		for i, item := range br.Items {
			key := owned[i]
			if item.Err != nil {
				fill(key, nil, ResultStats{}, fmt.Errorf("service: %s on %q (%s): %w",
					algo, name, keyLabel(key), item.Err))
				continue
			}
			stats := ResultStats{KSets: item.Result.KSets, Nodes: item.Result.Nodes}
			if item.Request.Size > 0 {
				stats.BestK = item.K
			}
			fill(key, item.Result.IDs, stats, nil)
		}
	})
	for i := range items {
		if items[i].Err != nil {
			continue
		}
		key := items[i].Query.key(name, entry.Gen, algo)
		if err, failed := errs[key]; failed {
			items[i].Err = err
			continue
		}
		res := results[key]
		items[i].CachedResult = res
		items[i].K = items[i].Query.K
		if items[i].Query.Size > 0 {
			items[i].K = res.Stats.BestK
		}
	}
	return items, algo, nil
}

// ParseWeights validates a raw weight vector against a dataset's
// dimensionality and returns the ranking function.
func ParseWeights(entry *Entry, weights []float64) (rrr.LinearFunc, error) {
	f := rrr.NewLinearFunc(weights...)
	if err := f.Validate(entry.Data.Dims()); err != nil {
		return rrr.LinearFunc{}, fmt.Errorf("service: weights: %w: %w", err, ErrBadRequest)
	}
	return f, nil
}

// RankOf returns the 1-based rank of tuple id in the named dataset under
// the given weights.
func (s *Service) RankOf(name string, id int, weights []float64) (int, error) {
	entry, err := s.registry.Get(name)
	if err != nil {
		return 0, err
	}
	f, err := ParseWeights(entry, weights)
	if err != nil {
		return 0, err
	}
	r, err := rrr.Rank(entry.Data, f, id)
	if err != nil {
		return 0, fmt.Errorf("service: %w: %w", err, ErrNotFound)
	}
	return r, nil
}

// RankRegretOf returns RR_f(ids): the best rank any of the given tuples
// achieves under the weights — the request-time check that a precomputed
// representative serves this user within its guarantee.
func (s *Service) RankRegretOf(name string, ids []int, weights []float64) (int, error) {
	entry, err := s.registry.Get(name)
	if err != nil {
		return 0, err
	}
	f, err := ParseWeights(entry, weights)
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, fmt.Errorf("service: empty tuple set: %w", ErrBadRequest)
	}
	r, err := rrr.RankRegret(entry.Data, f, ids)
	if err != nil {
		return 0, fmt.Errorf("service: %w: %w", err, ErrNotFound)
	}
	return r, nil
}

// maxRegretSamples bounds request-driven regret estimation: like dataset
// generation, a tiny GET must not be able to allocate an arbitrarily large
// sample set. 100× the paper's default is ample precision.
const maxRegretSamples = 1_000_000

// RegretEstimate is the sampled worst-case picture of a subset's quality.
type RegretEstimate struct {
	WorstRank int
	Witness   []float64
	Samples   int
}

// EstimateRegret estimates the worst-case rank-regret of the given tuples
// over the whole function space by uniform sampling (internal/eval's
// parallel evaluator), returning the worst rank observed and the weight
// vector witnessing it.
func (s *Service) EstimateRegret(name string, ids []int, samples int) (*RegretEstimate, error) {
	entry, err := s.registry.Get(name)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("service: empty tuple set: %w", ErrBadRequest)
	}
	if samples < 0 {
		return nil, fmt.Errorf("service: negative sample count %d: %w", samples, ErrBadRequest)
	}
	if samples > maxRegretSamples {
		return nil, fmt.Errorf("service: sample count %d exceeds the %d limit: %w", samples, maxRegretSamples, ErrBadRequest)
	}
	opt := rrr.EvalOptions{Samples: samples, Seed: s.cfg.Seed}
	worst, witness, err := rrr.EstimateRankRegret(entry.Data, ids, opt)
	if err != nil {
		return nil, fmt.Errorf("service: %w: %w", err, ErrNotFound)
	}
	if samples <= 0 {
		samples = rrr.DefaultEvalSamples
	}
	return &RegretEstimate{WorstRank: worst, Witness: witness.W, Samples: samples}, nil
}
