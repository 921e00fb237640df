// Package shard extracts exact candidate pools: the tuples of a dataset
// that can ever enter its top-k under some linear ranking function. A
// dataset is partitioned into P shards (a Plan), each shard's candidates
// are extracted on a worker pool, and the union is the pool.
//
// The pool is exact, not approximate, because of the paper's top-k
// containment property (the structure behind Theorem 1 and the k-set
// machinery of Lemma 5): a tuple in the global top-k under a linear
// function f outranks all but at most k−1 tuples of the whole dataset, so
// within any subset containing it — in particular its own shard — it
// outranks all but at most k−1 tuples. Therefore
//
//	t ∈ topk_D(f)  ⟹  t ∈ topk_S(f)  for t's shard S,
//
// and the union C of every shard's "tuples that can ever enter the shard's
// top-k" contains every member of every k-set of D: topk_C(f) = topk_D(f)
// for every linear f. Two extractors produce the per-shard sets:
//
//   - TopKRanges (2-D): sweep.FindRanges on the shard — its key set is
//     exactly the tuples that ever enter the shard's top-k, the minimal
//     correct per-shard pool.
//   - Dominance (any d ≥ 2): a tuple outranked by k or more shard tuples
//     under *every* linear function can never enter the shard's top-k and
//     is pruned. "u always outranks t" is decided componentwise
//     (core.AlwaysOutranks), so the filter is exact for the whole function
//     space, not a sample of it.
//
// Callers: the batch engine fans its per-query tails out with FanOut, and
// perfbench's ledger times both extractors. Dominance stays as the oracle
// internal/delta's d-D pools are tested against, and as the scan the
// ledger's shard.dominance_ms row times. internal/delta itself no longer
// calls this package: its 2-D pools are sweep.FindRangesScratch's range
// owners — what TopKRanges returns on a one-shard plan, without copying
// the dataset into a shard — and its d-D pools come from the dataset's
// dominator counts (core.Dataset.DominatorCounts).
//
// Nothing solves on a P-shard pool any more: the kernels now do that
// pruning themselves (the 2-D sweep runs on the k-skyband, d-D top-k
// scans stop early), so a sharded solve lost to the plain one on every
// measured workload (EXPERIMENTS.md §5).
package shard

import (
	"errors"
	"fmt"

	"rrr/internal/core"
)

// Strategy selects how a Plan assigns tuples to shards. Candidate
// correctness is strategy-independent — the containment property holds for
// any partition.
type Strategy int

const (
	// Contiguous splits the dataset into P nearly equal index ranges.
	Contiguous Strategy = iota
)

// Plan is a partition of one dataset into P non-empty shards. Shards hold
// the original tuples (IDs preserved, values shared, not copied), so
// per-shard results speak the same ID language as the full dataset.
type Plan struct {
	n      int
	shards []*core.Dataset
}

// NewPlan partitions d into p shards by the given strategy. p is capped at
// the dataset size (every shard must hold at least one tuple); p <= 0 is an
// error. A plan with P() == 1 makes the extraction a single scan of the
// whole dataset — what the delta engine's pools use.
func NewPlan(d *core.Dataset, p int, strategy Strategy) (*Plan, error) {
	if d == nil || d.N() == 0 {
		return nil, errors.New("shard: empty dataset")
	}
	if p <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", p)
	}
	if strategy != Contiguous {
		return nil, fmt.Errorf("shard: unknown strategy %d", strategy)
	}
	if p > d.N() {
		p = d.N()
	}
	ts := d.Tuples()
	n := len(ts)
	pl := &Plan{n: n}
	for i := 0; i < p; i++ {
		sd, err := core.FromTuples(ts[i*n/p : (i+1)*n/p])
		if err != nil {
			return nil, fmt.Errorf("shard: building shard dataset: %w", err)
		}
		pl.shards = append(pl.shards, sd)
	}
	return pl, nil
}

// P returns the number of shards.
func (pl *Plan) P() int { return len(pl.shards) }

// N returns the size of the partitioned dataset.
func (pl *Plan) N() int { return pl.n }

// Shard returns the i-th shard as a dataset (IDs preserved).
func (pl *Plan) Shard(i int) *core.Dataset { return pl.shards[i] }
