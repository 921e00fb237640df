package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"rrr/internal/core"
	"rrr/internal/sweep"
	"rrr/internal/trace"
)

// Extractor selects the per-shard candidate rule. See the package comment
// for why each rule's union across shards is an exact candidate pool.
type Extractor int

const (
	// TopKRanges runs sweep.FindRanges on each 2-D shard and keeps the
	// tuples owning a range — exactly those that ever enter the shard's
	// top-k. Minimal and exact; 2-D only.
	TopKRanges Extractor = iota
	// Dominance keeps the tuples outranked by fewer than k shard tuples
	// under every linear function (componentwise comparison plus the
	// library's ID tie-break). Exact for any dimensionality.
	Dominance
)

// Options configures an extraction.
type Options struct {
	// Workers bounds the worker pool (shards are processed concurrently).
	// <= 0 means GOMAXPROCS.
	Workers int
}

// Stats describes one extraction.
type Stats struct {
	// ShardsDone is the number of shards whose extraction completed. On
	// success it equals the plan's P; on interruption it reports progress.
	ShardsDone int
	// Candidates is the size of the candidate pool (0 until the
	// extraction completes).
	Candidates int
	// Input is the size of the full dataset.
	Input int
}

// PruneRatio is the fraction of the dataset the extraction eliminated:
// 1 − Candidates/Input. Zero when nothing was pruned (or nothing ran).
func (s Stats) PruneRatio() float64 {
	if s.Input == 0 || s.Candidates == 0 {
		return 0
	}
	return 1 - float64(s.Candidates)/float64(s.Input)
}

// cancelCheckInterval is how many tuples the dominance extractor processes
// between context checks; each tuple costs an O(n_s·d) scan, so the check
// is both cheap and frequent.
const cancelCheckInterval = 64

// Candidates runs every shard's extractor on a worker pool and unions the
// results into a sorted candidate ID pool. The pool provably contains
// every tuple that is in the top-k of the *full* dataset under any linear
// function, so solving on the pool reproduces the full dataset's answer.
//
// k is the global rank target; shards smaller than k contribute all their
// tuples (every tuple of an n-tuple dataset is in its top-n). The context
// is checked inside every extractor; on cancellation Candidates returns
// the error with Stats reporting how many shards finished.
func Candidates(ctx context.Context, pl *Plan, k int, ex Extractor, opt Options) ([]int, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pl == nil || pl.P() == 0 {
		return nil, Stats{}, errors.New("shard: nil or empty plan")
	}
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("shard: k must be positive, got %d", k)
	}
	stats := Stats{Input: pl.N()}
	perShard := make([][]int, pl.P())
	errs := make([]error, pl.P())
	// One shard failing dooms the whole extraction, so cancel the siblings
	// instead of letting them run to the end for nothing.
	mapCtx, stop := context.WithCancel(ctx)
	defer stop()
	// One span per shard task, parented under the caller's current span.
	// rec is nil on untraced calls, making every hook below a no-op.
	rec, parent := trace.FromContext(ctx)
	FanOut(pl.P(), opt.Workers, func(i int) {
		sid := rec.StartShard("map_shard", parent, i)
		perShard[i], errs[i] = extract(mapCtx, pl.Shard(i), k, ex)
		rec.End(sid)
		if errs[i] != nil {
			stop()
		}
	})
	for _, err := range errs {
		if err == nil {
			stats.ShardsDone++
		}
	}
	// Error selection: a sibling canceled by our own stop() is a symptom,
	// not the cause — prefer the error that triggered the stop over
	// induced cancellations, unless the caller's own context died (then
	// every cancellation is genuine and the first one serves).
	var mapErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if mapErr == nil {
			mapErr = err
		}
		if ctx.Err() == nil && !errors.Is(err, context.Canceled) {
			mapErr = err
			break
		}
	}
	if mapErr != nil {
		return nil, stats, mapErr
	}
	pool := make([]int, 0, pl.N())
	for _, ids := range perShard {
		pool = append(pool, ids...)
	}
	sort.Ints(pool)
	stats.Candidates = len(pool)
	return pool, stats, nil
}

// extract runs one shard's extractor. Shards no larger than k
// short-circuit to "everything": each of their tuples is trivially in the
// shard's top-k under every function.
func extract(ctx context.Context, sd *core.Dataset, k int, ex Extractor) ([]int, error) {
	if sd.N() <= k {
		return allIDs(sd), nil
	}
	sc := getMapScratch()
	defer putMapScratch(sc)
	switch ex {
	case TopKRanges:
		ranges, err := sweep.FindRangesScratch(ctx, sd, k, &sc.sweep)
		if err != nil {
			return nil, err
		}
		ids := make([]int, 0, len(ranges))
		for _, r := range ranges {
			ids = append(ids, r.ID)
		}
		return ids, nil
	case Dominance:
		return dominanceCandidates(ctx, sd, k, sc)
	}
	return nil, fmt.Errorf("shard: unknown extractor %d", ex)
}

// dominanceCandidates keeps every tuple outranked by fewer than k shard
// tuples under all linear functions. core.AlwaysOutranks is a sound and
// complete test of "outranks for every f in the paper's L". A tuple with k
// such dominators ranks below k everywhere, so dropping it cannot change
// any top-k — while every kept tuple costs only conservatism, never
// correctness.
//
// The scan uses the sort-filter trick of the skyline literature: u ≥ t
// componentwise implies Σu ≥ Σt, so with tuples sorted by attribute sum
// descending only the prefix with sums at least Σt can dominate t. On the
// paper's correlated workloads a dominated tuple meets its k dominators
// within a few positions, making the filter near-linear in practice; the
// worst case (anticorrelated data where nothing dominates anything) stays
// O(n_s²·d) per shard.
func dominanceCandidates(ctx context.Context, sd *core.Dataset, k int, sc *mapScratch) ([]int, error) {
	ts := sd.Tuples()
	n := len(ts)
	sc.sums = growFloats(sc.sums, n)
	sums := sc.sums
	for i, t := range ts {
		for _, v := range t.Attrs {
			sums[i] += v
		}
	}
	sc.order = growInts(sc.order, n)
	order := sc.order
	for i := range order {
		order[i] = i
	}
	sc.sorter = dominanceSorter{sums: sums, order: order, ts: ts}
	sort.Sort(&sc.sorter)
	sc.sorter.ts = nil // don't retain the dataset past this call
	ids := make([]int, 0, n)
	for pos, i := range order {
		if pos%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("shard: dominance extraction canceled: %w", err)
			}
		}
		t := ts[i]
		dominators := 0
		// Only earlier positions can dominate: a dominator's sum is at
		// least Σt, and among equal sums dominance requires winning the ID
		// tie-break, which the sort places earlier too.
		for _, j := range order[:pos] {
			if core.AlwaysOutranks(ts[j], t) {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			ids = append(ids, t.ID)
		}
	}
	return ids, nil
}

func allIDs(sd *core.Dataset) []int {
	ids := make([]int, sd.N())
	for i, t := range sd.Tuples() {
		ids[i] = t.ID
	}
	return ids
}

// FanOut runs work(0..n-1) on a bounded worker pool (workers <= 0 means
// GOMAXPROCS). Candidates fans shard extraction across it, and the batch
// engine reuses it for per-query tails — one implementation of the pool,
// living in the lowest package that needs it.
func FanOut(n, workers int, work func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				work(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
