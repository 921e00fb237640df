// Package service is the serving layer of the RRR reproduction: it wraps
// the batch library (rrr.Representative and the internal/eval estimators)
// behind a dataset registry, a keyed precomputation cache with singleflight
// semantics, and the JSON/HTTP handlers the rrrd daemon mounts.
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
	"rrr/internal/core"
	"rrr/internal/delta"
	"rrr/internal/shard"
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
	// will attempt). The algorithm and seed are appended per request.
	SolverOptions []rrr.Option
	// MaxConcurrentSolves bounds simultaneously running computations
	// (<= 0 defaults to GOMAXPROCS).
	MaxConcurrentSolves int
	// Shards routes every solve through the map-reduce engine with this
	// many contiguous shards (<= 1 = unsharded). The shard plan's
	// fingerprint becomes part of every cache key, so changing the
	// configuration can never serve results computed under another plan.
	Shards int
	// ShardWorkers bounds the map phase's worker pool (<= 0 = GOMAXPROCS).
	ShardWorkers int
	// DeltaMaintenance attaches a mutation log to every registered
	// dataset and enables Mutate (and the daemon's append/delete
	// endpoints): mutation batches advance datasets generation by
	// generation, and a per-dataset maintainer classifies every cached
	// answer as still-exact (re-keyed to the new generation), cheaply
	// repairable (reduce phase re-run on the patched candidate pool), or
	// stale (invalidated; recomputed lazily on next request).
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

// Validate checks the parallelism knobs against the library's shared rule
// (rrr.ValidateWorkers): zero stays "auto" (unsharded / GOMAXPROCS),
// negatives are configuration errors. The daemon calls it before New so a
// bad flag fails startup with the knob named; embedders that construct a
// Config by hand get the same single source of truth.
func (c Config) Validate() error {
	// Batch workers reach the service through SolverOptions, not a Config
	// field, so only the two knobs the Config owns are checked here.
	if err := rrr.ValidateWorkers(c.Shards, c.ShardWorkers, 0); err != nil {
		return fmt.Errorf("service: %w", err)
	}
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
	// shardKey is the fingerprint of the configured shard plan, empty when
	// unsharded; every cache key carries it.
	shardKey string
	// store is the durability layer (persist.go); nil for a memory-only
	// service, the historical behavior.
	store *wal.Store

	// maintainers holds one delta maintainer per mutable dataset, created
	// on first mutation and dropped with the dataset. Nil map when delta
	// maintenance is off.
	maintMu     sync.Mutex
	maintainers map[string]*delta.Maintainer

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
	if cfg.Shards > 1 {
		s.shardKey = shard.Fingerprint(shard.Contiguous, cfg.Shards)
	}
	if cfg.DeltaMaintenance {
		s.registry.EnableDeltaMaintenance()
		s.maintainers = make(map[string]*delta.Maintainer)
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

// solver builds the per-request Solver: the service-wide base options,
// then the seed, the shard configuration, and the request's resolved
// algorithm (last wins on conflicts, so a request can never un-pin its
// algorithm).
func (s *Service) solver(algorithm rrr.Algorithm) *rrr.Solver {
	opts := slices.Clone(s.cfg.SolverOptions)
	if s.cfg.Shards > 1 {
		opts = append(opts, rrr.WithShards(s.cfg.Shards), rrr.WithShardWorkers(s.cfg.ShardWorkers))
	}
	opts = append(opts, rrr.WithSeed(s.cfg.Seed), rrr.WithAlgorithm(algorithm))
	return rrr.New(opts...)
}

// Registry exposes the dataset registry for preloading and tests.
func (s *Service) Registry() *Registry { return s.registry }

// Metrics exposes the operational counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// RemoveDataset unregisters a dataset and invalidates its cached results
// and delta maintenance state.
func (s *Service) RemoveDataset(name string) bool {
	ok := s.registry.Remove(name)
	if ok {
		s.cache.InvalidateDataset(name)
		if s.maintainers != nil {
			s.maintMu.Lock()
			delete(s.maintainers, name)
			s.maintMu.Unlock()
		}
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

// maintainerFor returns (creating if needed) the named dataset's
// maintainer.
func (s *Service) maintainerFor(name string) *delta.Maintainer {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	m, ok := s.maintainers[name]
	if !ok {
		m = delta.NewMaintainer()
		s.maintainers[name] = m
	}
	return m
}

// maintain classifies every cached answer of the pre-batch generation
// (ch.PrevGen) and carries the survivors into ch.Gen. Dual (negative-K)
// entries are always invalidated: their answer is a search across many
// rank targets and no single pool bounds it.
//
// The returned map records, per new-generation key, the classification
// that actually *took effect* — a still-exact answer whose re-key lost a
// race, or a repair that failed, degrades to stale — which is exactly the
// signal the watch hub needs to choose between a heartbeat, a push of the
// repaired answer, and a recompute.
func (s *Service) maintain(ctx context.Context, cur *Entry, ch *delta.Change) (MutationStats, map[Key]delta.Class) {
	var stats MutationStats
	var classes map[Key]delta.Class
	keys := s.cache.CompletedKeys(cur.Name, ch.PrevGen)
	if len(keys) != 0 {
		classes = make(map[Key]delta.Class, len(keys))
		var ks []int
		for _, key := range keys {
			if key.K > 0 {
				ks = append(ks, key.K)
			}
		}
		outcomes, err := s.maintainerFor(cur.Name).Apply(ctx, ch, ks)
		if err != nil {
			// Maintenance interrupted: every cached answer degrades to
			// stale; the mutation itself already succeeded.
			outcomes = nil
		}
		for _, key := range keys {
			newKey := key
			newKey.Gen = ch.Gen
			outcome, classified := outcomes[key.K]
			if key.K < 0 || !classified {
				stats.Recomputed++
				classes[newKey] = delta.Stale
				continue
			}
			switch outcome.Class {
			case delta.StillExact:
				// Count the carry-over only if it actually lands: a
				// request at the new generation may have raced ahead and
				// claimed the key with its own computation, in which case
				// that flight — a recompute — wins.
				if s.cache.Rekey(key, newKey) {
					stats.Revalidated++
					classes[newKey] = delta.StillExact
				} else {
					stats.Recomputed++
					classes[newKey] = delta.Stale
				}
			case delta.Repairable:
				if s.repair(ctx, cur, newKey, outcome.Pool) {
					stats.Repaired++
					classes[newKey] = delta.Repairable
				} else {
					stats.Recomputed++
					classes[newKey] = delta.Stale
				}
			default:
				stats.Recomputed++
				classes[newKey] = delta.Stale
			}
		}
	}
	// Whatever remains at the old generation is unreachable; sweep it.
	s.cache.InvalidateGeneration(cur.Name, ch.PrevGen)
	return stats, classes
}

// repair re-runs only the reduce phase — the cached entry's algorithm on
// the patched candidate pool — and publishes the result under the
// new-generation key. Because the pool provably contains every k-set
// member of the mutated dataset, the deterministic algorithms reproduce a
// fresh full solve bit for bit. Reports whether the repair was published.
func (s *Service) repair(ctx context.Context, cur *Entry, key Key, pool *delta.Pool) bool {
	rec, parent := trace.FromContext(ctx)
	sid := rec.StartShard("delta_repair", parent, key.K)
	defer rec.End(sid)
	runData := cur.Data
	if pool.Len() < cur.Data.N() {
		tuples, err := cur.Data.Subset(pool.IDs)
		if err != nil {
			return false
		}
		reduced, err := core.FromTuples(tuples)
		if err != nil {
			return false
		}
		runData = reduced
	}
	// The reduce runs unsharded regardless of the serving configuration:
	// the pool is already the pruned input a sharded solve would reduce
	// over.
	opts := slices.Clone(s.cfg.SolverOptions)
	opts = append(opts, rrr.WithSeed(s.cfg.Seed), rrr.WithAlgorithm(rrr.Algorithm(key.Algo)))
	start := time.Now()
	res, err := rrr.New(opts...).Solve(ctx, runData, key.K)
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
	return Key{Dataset: entry.Name, Gen: entry.Gen, K: k, Algo: string(algo), Shards: s.shardKey}
}

// solveEntry serves (computing on first demand) the representative of the
// entry's generation at (k, algo) through the singleflight cache — the
// shared solve path of Representative, watch snapshots, and
// watch-triggered recomputes. ctx bounds this caller's wait, not the
// computation (Cache.Do detaches it). Completed keys are answered by the
// cache's fast path before any per-request solver or closure is built.
func (s *Service) solveEntry(ctx context.Context, entry *Entry, k int, algo rrr.Algorithm) (CachedResult, error) {
	key := s.key(entry, k, algo)
	if res, ok := s.cache.Hit(key); ok {
		return res, nil
	}
	solver := s.solver(algo)
	return s.cache.Do(ctx, key, func(runCtx context.Context) ([]int, ResultStats, error) {
		res, err := solver.Solve(runCtx, entry.Data, k)
		if err != nil {
			return nil, ResultStats{}, fmt.Errorf("service: %s on %q (k=%d): %w", algo, entry.Name, k, err)
		}
		s.metrics.shardSolve(res.Shards, res.Candidates, entry.Data.N())
		return res.IDs, ResultStats{KSets: res.KSets, Nodes: res.Nodes, Shards: res.Shards, Candidates: res.Candidates}, nil
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
// directly, dual queries use the negative size (see Key). shards is the
// service's shard plan fingerprint.
func (q BatchQuery) key(name string, gen int64, algo rrr.Algorithm, shards string) Key {
	if q.K > 0 {
		return Key{Dataset: name, Gen: gen, K: q.K, Algo: string(algo), Shards: shards}
	}
	return Key{Dataset: name, Gen: gen, K: -q.Size, Algo: string(algo), Shards: shards}
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
		key := q.key(name, entry.Gen, algo, s.shardKey)
		if _, dup := queryByKey[key]; !dup {
			queryByKey[key] = q
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		return items, algo, nil
	}

	solver := s.solver(algo)
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
		s.metrics.shardSolve(br.Stats.Shards, br.Stats.Candidates, data.N())
		for i, item := range br.Items {
			key := owned[i]
			if item.Err != nil {
				fill(key, nil, ResultStats{}, fmt.Errorf("service: %s on %q (%s): %w",
					algo, name, keyLabel(key), item.Err))
				continue
			}
			stats := ResultStats{KSets: item.Result.KSets, Nodes: item.Result.Nodes,
				Shards: item.Result.Shards, Candidates: item.Result.Candidates}
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
		key := items[i].Query.key(name, entry.Gen, algo, s.shardKey)
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
