package rrr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"rrr/internal/algo"
	"rrr/internal/kset"
	"rrr/internal/shard"
	"rrr/internal/sweep"
)

// Request is one query of a batch: either a primal solve (K > 0, the
// Solve(ctx, d, K) question) or the dual size query (Size > 0 with K == 0,
// the MinimalKForSize(ctx, d, Size) question). Exactly one of the two
// fields must be positive.
type Request struct {
	// K is the rank-regret target of a primal query.
	K int
	// Size is the output-size budget of a dual query.
	Size int
}

// BatchItem is the outcome of one Request. Exactly one of Result and Err
// is set.
type BatchItem struct {
	// Request is the query this item answers, as submitted.
	Request Request
	// K is the rank target the result satisfies: Request.K for primal
	// queries, the achieved minimal k for dual queries. Zero when Err is
	// set.
	K int
	// Result is the representative, identical to what the equivalent
	// Solve / MinimalKForSize call returns. Nil when Err is set.
	Result *Result
	// Err is the query's failure: the same typed *Error the equivalent
	// single-query call returns (infeasible k, cancellation, budget
	// exhaustion), or a plain validation error for malformed requests.
	Err error
}

// BatchStats aggregates the shared-phase work of one SolveBatch call —
// the observable proof that the batch amortized, not repeated, the
// expensive phases.
type BatchStats struct {
	// Sweeps is the number of angular sweep passes the 2-D path ran. A
	// batch of primal queries runs exactly one, regardless of how many
	// distinct k values it spans; each dual binary-search round adds at
	// most one more (shared by every dual probe of that round).
	Sweeps int
	// Draws is the number of ranking functions the shared K-SETr state
	// sampled across the whole batch (MDRRR path).
	Draws int
	// Solves is the number of distinct single-k subproblems executed.
	Solves int
	// Reused counts query answers served from an already-solved
	// subproblem: duplicate k values, and dual probes landing on the
	// primal k-grid.
	Reused int
	// Elapsed is the wall-clock time of the whole batch.
	Elapsed time.Duration
}

// BatchResult is SolveBatch's output: one item per request, in request
// order, plus the shared-phase statistics.
type BatchResult struct {
	Items []BatchItem
	Stats BatchStats
}

// memoEntry is one solved subproblem of a batch: the per-k result shared
// by every query that needs that k.
type memoEntry struct {
	res  *Result
	err  error
	uses int
}

// SolveBatch answers many queries over one dataset for barely more than
// the cost of the most expensive one, by executing the shared phases once
// and fanning out only the cheap per-query tails:
//
//   - 2DRRR: one sweep.FindRangesMulti pass computes Algorithm 1's ranges
//     for every distinct k in the batch (the sweep, over the largest k's
//     skyband, is the expensive phase); the per-k interval covers run on
//     a bounded worker pool.
//   - MDRRR: one shared K-SETr function stream feeds every k's collection
//     (kset.SampleMulti); the per-k hitting sets run on the pool.
//   - MDRC: no shared phase exists (each k partitions the function space
//     differently), so the solves themselves run on the pool.
//
// Dual Size queries are lowered onto the same machinery: all duals binary
// search in lockstep, and each round solves its distinct probe k values as
// one shared mini-batch (for 2-D, one extra sweep per round — O(log n)
// sweeps for any number of duals). Probes landing on an already-solved k
// — the primal grid or an earlier round — are served from the batch memo.
//
// Every item's Result and Err are identical to what the equivalent
// Solve / MinimalKForSize call returns (same options, same seed); only
// the work to produce them is shared. Malformed or infeasible requests
// fail their own item without poisoning the rest. On cancellation the
// returned items hold the queries answered before the stop, and every
// unanswered item carries the typed cancellation error — partial results,
// not a total loss. The returned error is non-nil only for batch-level
// misuse: nil dataset, empty request list, or an algorithm/dimensionality
// mismatch that dooms every item equally.
func (s *Solver) SolveBatch(ctx context.Context, d *Dataset, reqs []Request) (*BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d == nil {
		return nil, errors.New("rrr: nil dataset")
	}
	if len(reqs) == 0 {
		return nil, errors.New("rrr: empty batch")
	}
	algorithm := s.cfg.algorithm.Resolve(d.Dims())
	if err := validateDims(algorithm, d.Dims()); err != nil {
		return nil, err
	}
	if err := validateAlgorithm(algorithm); err != nil {
		return nil, err
	}
	b := &batchRun{
		solver:    s,
		d:         d,
		algorithm: algorithm,
		start:     time.Now(),
		memo:      make(map[int]*memoEntry),
		workers:   s.cfg.batchWorkers,
	}
	if b.workers <= 0 {
		b.workers = runtime.GOMAXPROCS(0)
	}
	// Per-query tails run concurrently on the pool, but WithProgress
	// documents a single-goroutine callback; serialize it so batch runs
	// honor the same contract as single solves.
	if hook := s.progressHook(algorithm, b.start); hook != nil {
		var mu sync.Mutex
		b.progress = func(st algo.Stats) {
			mu.Lock()
			defer mu.Unlock()
			hook(st)
		}
	}

	// Plan: validate each request and collect the distinct primal k-grid.
	out := &BatchResult{Items: make([]BatchItem, len(reqs))}
	var grid []int
	seen := make(map[int]bool)
	for i, r := range reqs {
		out.Items[i].Request = r
		switch {
		case r.K > 0 && r.Size > 0:
			out.Items[i].Err = fmt.Errorf("rrr: request sets both k=%d and size=%d", r.K, r.Size)
		case r.K < 0:
			out.Items[i].Err = fmt.Errorf("rrr: k must be positive, got %d", r.K)
		case r.K == 0 && r.Size < 0:
			out.Items[i].Err = fmt.Errorf("rrr: size budget must be positive, got %d", r.Size)
		case r.K == 0 && r.Size == 0:
			out.Items[i].Err = errors.New("rrr: empty request: set k or size")
		case r.K > d.N():
			out.Items[i].Err = infeasibleK(algorithm, r.K, d.N())
		case r.K > 0 && !seen[r.K]:
			seen[r.K] = true
			grid = append(grid, r.K)
		}
	}
	sort.Ints(grid)

	// Phase 1: solve the primal k-grid through the shared phases.
	b.solveGrid(ctx, grid)

	// Phase 2: dual queries, binary searching in lockstep so each round's
	// probes share one mini-batch (and the memo from phase 1).
	b.solveDuals(ctx, out.Items)

	// Stamp each memoized result with its rank target (memo keys are the
	// k-grid), so batch results report K like single solves do.
	for k, entry := range b.memo {
		if entry.res != nil {
			entry.res.K = k
		}
	}

	// Fill the primal items from the memo.
	for i := range out.Items {
		it := &out.Items[i]
		if it.Err != nil || it.Request.K == 0 {
			continue
		}
		entry := b.memo[it.Request.K]
		entry.uses++
		if entry.err != nil {
			it.Err = entry.err
			continue
		}
		it.K = it.Request.K
		it.Result = entry.res
	}
	for _, entry := range b.memo {
		if entry.uses > 1 {
			b.stats.Reused += entry.uses - 1
		}
	}
	b.stats.Elapsed = time.Since(b.start)
	out.Stats = b.stats
	return out, nil
}

// batchRun is the mutable state of one SolveBatch execution.
type batchRun struct {
	solver    *Solver
	d         *Dataset
	algorithm Algorithm
	start     time.Time
	memo      map[int]*memoEntry
	stats     BatchStats
	workers   int
	// progress is the user's WithProgress callback, pre-wrapped with a
	// mutex because tails fire it from pool workers. Nil when unset.
	progress func(algo.Stats)
}

// solveGrid solves the given distinct k values through the algorithm's
// shared phase and records each outcome in the memo. ks must be valid
// (1 <= k <= n) and not already memoized.
func (b *batchRun) solveGrid(ctx context.Context, ks []int) {
	if len(ks) == 0 {
		return
	}
	b.stats.Solves += len(ks)
	// Mirror Solve's pre-dispatch context check: a batch canceled before
	// this phase reports every pending item canceled instead of racing the
	// algorithms' internal check cadence.
	if err := ctx.Err(); err != nil {
		wrapped := &Error{Kind: ErrCanceled, Op: "solve", Algorithm: b.algorithm, Cause: err,
			Partial: PartialStats{Elapsed: time.Since(b.start)}}
		for _, k := range ks {
			b.memo[k] = &memoEntry{err: wrapped}
		}
		return
	}
	switch b.algorithm {
	case Algo2DRRR:
		b.gridTwoD(ctx, ks)
	case AlgoMDRRR:
		b.gridMDRRR(ctx, ks)
	default:
		b.gridMDRC(ctx, ks)
	}
}

// gridTwoD runs Algorithm 1 once for all ks (the shared sweep) and fans
// the per-k interval covers across the pool.
func (b *batchRun) gridTwoD(ctx context.Context, ks []int) {
	s := b.solver
	// The shared sweep is single-goroutine, so it borrows one solve arena
	// for its state; the ranges it returns are its own, so the arena goes
	// back before the fan-out.
	arena := s.arenas.get()
	rangesPerK, err := sweep.FindRangesMulti(ctx, b.d, ks, &arena.twod.Sweep)
	s.arenas.put(arena)
	b.stats.Sweeps++
	if err != nil {
		// The sweep failed for every k at once; each item reports it the
		// way a single solve would (a canceled sweep becomes the typed
		// cancellation error).
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = &algo.Interrupted{Err: err}
		}
		wrapped := s.wrapSolveError(b.algorithm, b.start, err)
		for _, k := range ks {
			b.memo[k] = &memoEntry{err: wrapped}
		}
		return
	}
	opt := s.twoDOptions(b.progress)
	entries := make([]*memoEntry, len(ks))
	b.fanOut(len(ks), func(i int) {
		res, err := algo.TwoDRRRFromRanges(rangesPerK[i], opt)
		entries[i] = b.finish(res, err)
	})
	for i, k := range ks {
		b.memo[k] = entries[i]
	}
}

// gridMDRRR samples every k's collection from one shared function stream
// and fans the per-k hitting sets across the pool.
func (b *batchRun) gridMDRRR(ctx context.Context, ks []int) {
	s := b.solver
	opt := s.mdrrrOptions(b.progress)
	sampler := opt.SampleOptions()
	// The shared sampling phase is single-goroutine, so it can borrow one
	// solve arena for its draw buffers; it is returned before the fan-out.
	arena := s.arenas.get()
	sampler.Scratch = &arena.sampler
	cols, sstats, serrs := kset.SampleMulti(ctx, b.d, ks, sampler)
	s.arenas.put(arena)
	// Within one shared stream, the per-k draw counter of the
	// longest-running k is the stream's total; across solveGrid calls
	// (dual rounds each open a fresh stream) the totals accumulate.
	roundDraws := 0
	for i := range ks {
		if sstats[i].Draws > roundDraws {
			roundDraws = sstats[i].Draws
		}
	}
	b.stats.Draws += roundDraws
	entries := make([]*memoEntry, len(ks))
	b.fanOut(len(ks), func(i int) {
		res, err := algo.MDRRRFromSample(ctx, b.d, cols[i], sstats[i], serrs[i], opt)
		entries[i] = b.finish(res, err)
	})
	for i, k := range ks {
		b.memo[k] = entries[i]
	}
}

// gridMDRC has no shared phase: the full per-k solves are the fan-out.
func (b *batchRun) gridMDRC(ctx context.Context, ks []int) {
	opt := b.solver.mdrcOptions(b.progress)
	entries := make([]*memoEntry, len(ks))
	b.fanOut(len(ks), func(i int) {
		res, err := algo.MDRC(ctx, b.d, ks[i], opt)
		entries[i] = b.finish(res, err)
	})
	for i, k := range ks {
		b.memo[k] = entries[i]
	}
}

// finish converts an internal result or error to a memo entry, applying
// the same conversion Solve applies.
func (b *batchRun) finish(res *algo.Result, err error) *memoEntry {
	if err != nil {
		return &memoEntry{err: b.solver.wrapSolveError(b.algorithm, b.start, err)}
	}
	out := &Result{
		IDs:       res.IDs,
		Algorithm: b.algorithm,
		KSets:     res.Stats.KSets,
		Nodes:     res.Stats.Nodes,
		Draws:     res.Stats.SamplerDraws,
		Elapsed:   time.Since(b.start),
	}
	return &memoEntry{res: out}
}

// fanOut runs work(0..n-1) on the batch worker pool (the shard package's
// shared bounded-pool helper).
func (b *batchRun) fanOut(n int, work func(i int)) {
	shard.FanOut(n, b.workers, work)
}

// dualSearch is the lockstep binary-search state of one Size query.
type dualSearch struct {
	item   *BatchItem
	size   int
	lo, hi int
	bestK  int
	best   *Result
	done   bool
}

// solveDuals advances every dual query one probe per round, solving each
// round's distinct new probe k values as a shared mini-batch. It is the
// only dual search: MinimalKForSize is a one-item batch. The search
// trajectory — and therefore the answer — is that of a binary search over
// sequential Solve calls, because each probe's result is Solve's.
func (b *batchRun) solveDuals(ctx context.Context, items []BatchItem) {
	var searches []*dualSearch
	for i := range items {
		it := &items[i]
		if it.Err != nil || it.Request.Size == 0 {
			continue
		}
		searches = append(searches, &dualSearch{item: it, size: it.Request.Size, lo: 1, hi: b.d.N()})
	}
	if len(searches) == 0 {
		return
	}
	for {
		active := false
		for _, ds := range searches {
			if !ds.done && ds.lo <= ds.hi {
				active = true
			}
		}
		if !active {
			break
		}
		// The between-probes context check, applied to the whole round: a
		// canceled batch must not launch another shared solve just to have
		// it fail. Searches that already converged fall through to the
		// finalization loop below and keep their answer.
		if err := ctx.Err(); err != nil {
			for _, ds := range searches {
				if ds.done || ds.lo > ds.hi {
					continue
				}
				ds.item.Err = &Error{Kind: ErrCanceled, Op: "minimal-k", Algorithm: b.algorithm, Cause: err,
					Partial: PartialStats{Elapsed: time.Since(b.start), BestK: ds.bestK, Best: ds.best}}
				ds.done = true
			}
			break
		}
		// Collect the round's probes not yet memoized and solve them as one
		// shared mini-batch.
		var probes []int
		probeSeen := make(map[int]bool)
		for _, ds := range searches {
			if ds.done || ds.lo > ds.hi {
				continue
			}
			mid := (ds.lo + ds.hi) / 2
			if b.memo[mid] == nil && !probeSeen[mid] {
				probeSeen[mid] = true
				probes = append(probes, mid)
			}
		}
		sort.Ints(probes)
		b.solveGrid(ctx, probes)
		// Advance every search on its probe's outcome.
		for _, ds := range searches {
			if ds.done || ds.lo > ds.hi {
				continue
			}
			mid := (ds.lo + ds.hi) / 2
			entry := b.memo[mid]
			entry.uses++
			if entry.err != nil {
				ds.item.Err = b.dualProbeError(entry.err, ds)
				ds.done = true
				continue
			}
			if len(entry.res.IDs) <= ds.size {
				ds.best, ds.bestK = entry.res, mid
				ds.hi = mid - 1
			} else {
				ds.lo = mid + 1
			}
		}
	}
	for _, ds := range searches {
		if ds.done {
			continue
		}
		if ds.best == nil {
			// Unreachable for size >= 1 (k = n admits a singleton); defend
			// anyway.
			ds.item.Err = &Error{Kind: ErrInfeasible, Op: "minimal-k", Algorithm: b.algorithm,
				Cause:   fmt.Errorf("no k admits a representative of size <= %d", ds.size),
				Partial: PartialStats{Elapsed: time.Since(b.start)}}
			continue
		}
		ds.item.K = ds.bestK
		ds.item.Result = ds.best
	}
}

// dualProbeError re-wraps a failed probe's typed error with the search
// state: Op "minimal-k", the search's elapsed time and its best result so
// far.
func (b *batchRun) dualProbeError(err error, ds *dualSearch) error {
	var e *Error
	if errors.As(err, &e) {
		out := *e
		out.Op = "minimal-k"
		out.Partial.Elapsed = time.Since(b.start)
		out.Partial.BestK = ds.bestK
		out.Partial.Best = ds.best
		return &out
	}
	return err
}
