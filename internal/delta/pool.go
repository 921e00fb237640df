package delta

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"rrr/internal/core"
	"rrr/internal/sweep"
	"rrr/internal/trace"
)

// Class is the verdict on a cached answer under one mutation batch, in
// the vocabulary the library (rrr.DeltaClass aliases it) and the wire
// share. See the package comment for the containment argument behind each.
type Class int

const (
	// StillExact: no insert can enter any top-k and no delete was in the
	// containment pool — the cached answer is exactly what a fresh solve
	// would produce.
	StillExact Class = iota
	// Repaired: some inserts may enter a top-k, but nothing else moved;
	// re-running only the reduce phase on the patched pool reproduces a
	// fresh solve.
	Repaired
	// Recomputed: a delete hit the pool or the normalization bounds moved;
	// only a full recompute is sound.
	Recomputed
)

// String returns the lowercase verdict name used in logs, counters and
// watch events.
func (c Class) String() string {
	switch c {
	case StillExact:
		return "still-exact"
	case Repaired:
		return "repaired"
	case Recomputed:
		return "recomputed"
	}
	return "unknown"
}

// Pool is a containment pool at one rank target: a superset of every tuple
// that can enter the top-k of the dataset it was built against, under any
// linear ranking function. It is the object the classification tests run
// against, and it advances generation by generation alongside the log.
type Pool struct {
	// K is the rank target the pool contains for.
	K int
	// IDs is the sorted member list.
	IDs []int
	// members indexes IDs for the classification tests.
	members map[int]bool
}

// newPool assembles a Pool from a sorted candidate ID list.
func newPool(k int, ids []int) *Pool {
	p := &Pool{K: k, IDs: ids, members: make(map[int]bool, len(ids))}
	for _, id := range ids {
		p.members[id] = true
	}
	return p
}

// Contains reports pool membership.
func (p *Pool) Contains(id int) bool { return p != nil && p.members[id] }

// Len returns the pool size.
func (p *Pool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.IDs)
}

// BuildPool computes a containment pool of d at rank target k. For 2-D
// data it is the range owners of sweep.FindRangesScratch: the minimal
// pool, exactly the tuples that ever enter the top-k (every tuple when
// n ≤ k). Otherwise it is the k-skyband, the tuples fewer than k others
// AlwaysOutrank, read from d's dominator counts
// (core.Dataset.DominatorCounts, built at the snapshot's first pool): the
// same pool shard.Dominance's scan returns, sound for every
// dimensionality and every linear function. Both are proven supersets of
// every k-set member, which is all the classification tests require. A
// dead context returns its error. The build is recorded as a
// "reval_pool" span under the context's trace.
func BuildPool(ctx context.Context, d *core.Dataset, k int) (*Pool, error) {
	rec, parent := trace.FromContext(ctx)
	sid := rec.Start("reval_pool", parent)
	ids, err := poolIDs(ctx, d, k)
	rec.End(sid)
	if err != nil {
		return nil, fmt.Errorf("delta: building revalidation pool: %w", err)
	}
	return newPool(k, ids), nil
}

// poolIDs returns the sorted member IDs of BuildPool's pool.
func poolIDs(ctx context.Context, d *core.Dataset, k int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ids []int
	switch {
	case d.Dims() != 2:
		counts, err := d.DominatorCounts(ctx)
		if err != nil {
			return nil, err
		}
		size := 0
		for _, c := range counts {
			if int(c) < k {
				size++
			}
		}
		ids = make([]int, 0, size)
		for i, c := range counts {
			if int(c) < k {
				ids = append(ids, d.Tuple(i).ID)
			}
		}
	case d.N() <= k:
		ids = make([]int, d.N())
		for i, t := range d.Tuples() {
			ids[i] = t.ID
		}
	default:
		ranges, err := sweep.FindRangesScratch(ctx, d, k, nil)
		if err != nil {
			return nil, err
		}
		ids = make([]int, len(ranges))
		for i, r := range ranges {
			ids[i] = r.ID
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// Classify applies the containment tests of the package comment to one
// change, returning the verdict and the pool valid for ch.After: the
// receiver itself when still-exact, the patched pool (receiver ∪ crossing
// inserts) when repaired, nil when recomputed.
func (p *Pool) Classify(ch *Change) (Class, *Pool) {
	if p == nil || ch == nil || ch.Rescaled {
		return Recomputed, nil
	}
	for _, id := range ch.Deleted {
		if p.members[id] {
			return Recomputed, nil
		}
	}
	var crossing []int
	for _, id := range ch.Inserted {
		t, ok := ch.After.ByID(id)
		if !ok {
			// An insert the After snapshot cannot resolve means the change
			// is inconsistent; recompute rather than trust it.
			return Recomputed, nil
		}
		if !p.dominatedByK(t, ch.After) {
			crossing = append(crossing, id)
		}
	}
	if len(crossing) == 0 {
		return StillExact, p
	}
	merged := make([]int, 0, len(p.IDs)+len(crossing))
	merged = append(merged, p.IDs...)
	merged = append(merged, crossing...)
	sort.Ints(merged)
	return Repaired, newPool(p.K, merged)
}

// Revalidate is the one revalidation step of both front-ends
// (Maintainer.Apply for the daemon, rrr's Solver.RevalidateInto for the
// library): it carries the answer at rank target k across ch, reusing
// pool when it was built for k and building one from ch.Before otherwise.
// A rescaled change is recomputed without building anything. The returned
// pool is valid for ch.After (nil when recomputed). A failed build returns
// Recomputed with the error; what an error means is the caller's rule.
func Revalidate(ctx context.Context, pool *Pool, ch *Change, k int) (Class, *Pool, error) {
	if ch.Rescaled {
		return Recomputed, nil, nil
	}
	if pool == nil || pool.K != k {
		var err error
		if pool, err = BuildPool(ctx, ch.Before, k); err != nil {
			return Recomputed, nil, err
		}
	}
	class, next := pool.Classify(ch)
	return class, next, nil
}

// RepairData returns the input a repair solves on: the pool's tuples of
// after, as a dataset — after itself when the pool holds every tuple.
// Because the pool contains every k-set member of after, the
// deterministic algorithms return exactly after's answer on it.
func (p *Pool) RepairData(after *core.Dataset) (*core.Dataset, error) {
	if p.Len() >= after.N() {
		return after, nil
	}
	tuples, err := after.Subset(p.IDs)
	if err != nil {
		return nil, fmt.Errorf("delta: assembling repair pool: %w", err)
	}
	data, err := core.FromTuples(tuples)
	if err != nil {
		return nil, fmt.Errorf("delta: assembling repair pool: %w", err)
	}
	return data, nil
}

// dominatedByK reports whether at least K pool members componentwise
// dominate t in the after snapshot. Testing against the pool alone loses
// nothing: dominance is transitive, so a tuple with K dominators anywhere
// in the dataset has K dominators among the tuples that are themselves
// dominated by fewer than K — i.e. inside any dominance-containment pool.
func (p *Pool) dominatedByK(t core.Tuple, after *core.Dataset) bool {
	dominators := 0
	for _, id := range p.IDs {
		u, ok := after.ByID(id)
		if !ok {
			continue
		}
		if core.AlwaysOutranks(u, t) {
			dominators++
			if dominators >= p.K {
				return true
			}
		}
	}
	return false
}

// Outcome is the maintainer's verdict for one rank target.
type Outcome struct {
	Class Class
	// Pool is the containment pool valid for the new generation: the
	// reduce-phase input for Repaired, the unchanged pool for StillExact,
	// nil for Recomputed.
	Pool *Pool
}

// Maintainer tracks the revalidation pools of one dataset across its
// mutation log, one pool per rank target with live cached answers. Every
// Log owns one (Log.Maintainer), shared by all of a registration's
// generations. The zero value is ready to use, and it is safe for
// concurrent use.
type Maintainer struct {
	mu    sync.Mutex
	pools map[int]*Pool
	// gen is the generation the pools are valid for. Apply reuses a pool
	// only when the incoming change continues exactly from gen; any gap —
	// a batch applied while no answers were cached, or maintenance calls
	// racing out of order — rebuilds from that change's own Before
	// snapshot, so a lagging pool can never certify a stale answer.
	gen int64
}

// NewMaintainer returns an empty maintainer.
func NewMaintainer() *Maintainer { return new(Maintainer) }

// Apply advances the maintainer across one applied batch: for every rank
// target in ks (the targets with cached answers at the pre-batch
// generation) it runs Revalidate and rolls the pool forward to ch's
// generation. Pools for targets absent from ks are dropped — no cached
// answer needs them anymore. Missing pools are built lazily from the
// Before snapshot, so a maintainer created after the first solves still
// classifies exactly.
//
// A pool that fails to build (cancellation aside) degrades that target to
// Recomputed rather than failing the whole batch — the mutation is
// already applied; classification is bookkeeping about cached answers. A
// dead context aborts with its error and the caller should treat every
// target as recomputed.
func (m *Maintainer) Apply(ctx context.Context, ch *Change, ks []int) (map[int]Outcome, error) {
	if ch == nil {
		return nil, fmt.Errorf("delta: nil change")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Pools are valid only for the exact generation this change starts
	// from. A gap (unmaintained batch, out-of-order racing maintenance)
	// means every pool must be rebuilt from ch.Before — which is always
	// the correct pre-batch snapshot for classifying ch, whatever state
	// the maintainer was left in.
	pools := m.pools
	if m.gen != ch.PrevGen {
		pools = nil
	}
	out := make(map[int]Outcome, len(ks))
	next := make(map[int]*Pool, len(ks))
	for _, k := range ks {
		if _, dup := out[k]; dup {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("delta: maintenance canceled: %w", err)
		}
		class, advanced, err := Revalidate(ctx, pools[k], ch, k)
		if err != nil && ctx.Err() != nil {
			return nil, err
		}
		out[k] = Outcome{Class: class, Pool: advanced}
		if advanced != nil {
			next[k] = advanced
		}
	}
	// Advance only forward: if a racing Apply for a later batch already
	// moved the maintainer past this change, its pools describe a newer
	// generation than ours — leave them.
	if ch.Gen > m.gen {
		m.pools = next
		m.gen = ch.Gen
	}
	return out, nil
}
