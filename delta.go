package rrr

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rrr/internal/delta"
)

// WithDeltaMaintenance enables incremental revalidation of solve results
// under dataset mutations. A Solver with the option on attaches a
// containment pool — the tuples that can ever enter the top-k, computed by
// the shard package's exact extractors — to every successful Solve result,
// and accepts Revalidate calls that reuse it to classify the result under
// a mutation as still-exact, repaired, or recomputed. Solve pays one extra
// extraction pass for the pool; Revalidate amortizes it across every later
// mutation.
func WithDeltaMaintenance() Option { return func(c *config) { c.deltaMaintenance = true } }

// DeltaClass is Revalidate's verdict on a prior result under a mutation:
// the delta engine's verdict type, whose String is the lowercase name the
// daemon's mutation counters and watch events carry.
type DeltaClass = delta.Class

const (
	// DeltaStillExact: the prior result is exactly what a fresh solve on
	// the mutated dataset would produce; no solving work was done.
	DeltaStillExact = delta.StillExact
	// DeltaRepaired: some inserted tuples could enter a top-k; the
	// algorithm was re-run on the patched containment pool only, which
	// reproduces a fresh solve on the deterministic paths.
	DeltaRepaired = delta.Repaired
	// DeltaRecomputed: a delete hit the containment pool or the dataset
	// was rescaled; the result is a full fresh solve.
	DeltaRecomputed = delta.Recomputed
)

// Delta describes one mutation batch at the normalized-dataset level: the
// snapshots around it, which tuple IDs appeared and disappeared, and
// whether surviving tuples changed coordinates (a raw table whose
// normalization bounds moved rescales every point). Build one by hand when
// the caller tracks its own mutations, or with DiffDatasets from two
// snapshots.
type Delta struct {
	// Before is the dataset the prior result was computed on; After the
	// mutated dataset.
	Before, After *Dataset
	// Inserted lists IDs present in After but not Before; Deleted the
	// reverse.
	Inserted, Deleted []int
	// Rescaled reports that tuples surviving the mutation changed
	// normalized coordinates, which forecloses every containment argument
	// and forces a recompute.
	Rescaled bool
}

// DiffDatasets derives the Delta between two snapshots by comparing tuple
// IDs and coordinates: O(n·d). Prefer constructing Delta directly when the
// mutation's shape is already known (e.g. from a table-level append).
func DiffDatasets(before, after *Dataset) Delta {
	d := Delta{Before: before, After: after}
	if before == nil || after == nil {
		return d
	}
	for _, t := range before.Tuples() {
		u, ok := after.ByID(t.ID)
		if !ok {
			d.Deleted = append(d.Deleted, t.ID)
			continue
		}
		for j, v := range t.Attrs {
			if j >= len(u.Attrs) || u.Attrs[j] != v {
				d.Rescaled = true
				break
			}
		}
	}
	for _, t := range after.Tuples() {
		if _, ok := before.ByID(t.ID); !ok {
			d.Inserted = append(d.Inserted, t.ID)
		}
	}
	return d
}

// Revalidation is the outcome of Solver.Revalidate: the verdict and a
// result valid for the mutated dataset. The result always carries the
// advanced containment pool, so chaining Revalidate across a sequence of
// mutations never rebuilds pools.
type Revalidation struct {
	// Class reports how the prior result fared.
	Class DeltaClass
	// Result is valid for d.After: the prior result itself (still-exact),
	// the reduce-phase re-run on the patched pool (repaired), or a fresh
	// solve (recomputed).
	Result *Result
	// PoolSize is the size of the containment pool consulted (the patched
	// pool for repairs); zero on the recompute path, where no pool
	// classification ran.
	PoolSize int
}

// Revalidate classifies a prior Solve result under a dataset mutation and
// returns a result valid for the mutated dataset, doing the least work the
// containment tests allow: nothing when no inserted tuple can enter any
// top-k and no deleted tuple was in the pool, a pool-sized reduce re-run
// when only inserts crossed, and a full solve otherwise. Every verdict
// runs prev's algorithm, whatever this Solver is configured with, so the
// result's Algorithm always equals prev's. On the
// deterministic paths (2DRRR, MDRC) the returned IDs are bit-for-bit what
// a fresh solve on d.After produces; for sampled MDRRR the repaired result
// carries the same probabilistic guarantee as a fresh solve.
//
// prev must come from Solve (it records the rank target in Result.K) on a
// Solver built with WithDeltaMaintenance. The context is honored through
// pool building and any solving work, with the usual typed errors.
func (s *Solver) Revalidate(ctx context.Context, d Delta, prev *Result) (*Revalidation, error) {
	out := new(Revalidation)
	if err := s.RevalidateInto(ctx, d, prev, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RevalidateInto is Revalidate writing into a caller-owned Revalidation:
// when the verdict is still-exact — the steady state of a workload whose
// mutations rarely touch the top-k — a warm out is filled without
// allocating, so a serving loop can revalidate on every batch for free.
// out.Result is reused when non-nil (and distinct from prev) and
// overwritten; the repaired and recomputed paths store a fresh Result.
// out must be non-nil. Semantics are otherwise identical to Revalidate.
func (s *Solver) RevalidateInto(ctx context.Context, d Delta, prev *Result, out *Revalidation) error {
	if out == nil {
		return errors.New("rrr: nil revalidation")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.cfg.deltaMaintenance {
		return errors.New("rrr: Revalidate requires WithDeltaMaintenance")
	}
	if prev == nil || prev.K <= 0 {
		return errors.New("rrr: Revalidate needs a prior Solve result (with its rank target recorded)")
	}
	if d.Before == nil || d.After == nil {
		return errors.New("rrr: Revalidate needs both the before and after snapshots")
	}
	algorithm := prev.Algorithm.Resolve(d.After.Dims())
	start := time.Now()
	class, pool, err := delta.Revalidate(ctx, prev.revalPool, &delta.Change{
		Before:   d.Before,
		After:    d.After,
		Inserted: d.Inserted,
		Deleted:  d.Deleted,
		Rescaled: d.Rescaled,
	}, prev.K)
	if err != nil {
		return s.wrapSolveError(algorithm, start, err)
	}

	// Only the still-exact path may reuse out.Result; the others store a
	// fresh one.
	res := out.Result
	if res == nil || res == prev || class != DeltaStillExact {
		res = new(Result)
	}
	switch class {
	case DeltaStillExact:
		*res = *prev // the IDs slice is shared with prev, exactly as Revalidate always has
		res.Elapsed = time.Since(start)
		res.revalPool = pool
	case DeltaRepaired:
		err = s.reduceOnPool(ctx, d.After, pool, prev.K, algorithm, start, res)
	default:
		err = s.solveInto(ctx, d.After, prev.K, algorithm, res)
	}
	if err != nil {
		return err
	}
	out.Class, out.Result, out.PoolSize = class, res, pool.Len()
	return nil
}

// reduceOnPool re-runs only the reduce phase into res: the resolved
// algorithm on the containment pool's repair input. Because the pool
// provably contains every k-set member of the full dataset, the
// deterministic algorithms return exactly the full-dataset answer.
func (s *Solver) reduceOnPool(ctx context.Context, after *Dataset, pool *delta.Pool, k int, algorithm Algorithm, start time.Time, res *Result) error {
	if err := validateDims(algorithm, after.Dims()); err != nil {
		return err
	}
	runData, err := pool.RepairData(after)
	if err != nil {
		return fmt.Errorf("rrr: %w", err)
	}
	arena := s.arenas.get()
	defer s.arenas.put(arena)
	if err := s.solveOnInto(ctx, runData, k, algorithm, start, arena, res); err != nil {
		return err
	}
	res.revalPool = pool
	return nil
}
