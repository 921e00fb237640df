// Package delta is the incremental-mutation subsystem of the RRR
// reproduction: an append/delete log over a raw table with monotonically
// increasing generations and stable tuple IDs, plus the containment-based
// machinery (pools, classification, maintainer) that decides what a
// mutation batch does to previously computed rank-regret representatives.
//
// The paper's top-k containment property — a tuple in the global top-k
// under f is in the top-k of any subset containing it — gives an exact
// revalidation test under data change. Fix a rank target k and let
// C ⊇ {t : ∃f, t ∈ topk_D(f)} be a containment pool of the dataset D the
// cached answer was computed on (BuildPool builds exactly such pools: the
// 2-D range owners, or the k-skyband read from the snapshot's dominator
// counts). For a mutation batch turning D into D′:
//
//  1. If the raw normalization bounds moved, every surviving tuple's
//     normalized coordinates change and no containment argument relates
//     the snapshots: the answer is RECOMPUTED.
//  2. Deleting u ∉ C removes a tuple that is in no top-k, so
//     topk_{D′}(f) = topk_D(f) for every f. Deleting u ∈ C can promote
//     tuples from below rank k in ways the pool cannot see: RECOMPUTED.
//  3. Inserting t that is componentwise dominated (core.AlwaysOutranks)
//     by at least k pool members can never enter any top-k — and testing
//     against the pool is as complete as testing against all of D′,
//     because a tuple with k dominators anywhere has k dominators in the
//     pool (dominance is transitive and every maximal dominator chain
//     ends inside the pool). Such inserts leave every top-k unchanged.
//  4. Inserts failing test 3 may enter some top-k, but only they can:
//     a surviving tuple outside C keeps rank > k under every f, because
//     each deleted tuple that outranked it also ranked below k, so the
//     deletion lifts it by strictly fewer positions than its slack.
//     Hence C′ = C ∪ {crossing inserts} is a containment pool of D′ and
//     re-running only the reduce phase on C′ reproduces a fresh solve:
//     the answer is REPAIRED.
//
// When no insert crosses and no delete was in the pool (and bounds held),
// every top-k of D′ equals its D counterpart, so the cached answer is the
// answer a fresh solve would produce — STILL-EXACT, bit for bit on the
// deterministic paths (2DRRR, MDRC) and draw-for-draw for seeded MDRRR.
// A corollary: the still-exact and repaired paths can never strand a
// cached k above the dataset size, because at most n−k tuples live
// outside a pool and deletes are confined to them.
package delta

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"rrr/internal/core"
	"rrr/internal/dataset"
)

// Batch is one mutation: rows to append and/or tuple IDs to delete.
// Within a batch, deletes are applied first, then appends — an appended
// tuple's fresh ID can therefore never collide with a deleted one.
type Batch struct {
	Append [][]float64
	Delete []int
}

// Validate rejects malformed batches before any state changes: empty
// batches, duplicate delete IDs, and non-finite append values. Row arity
// is checked against the table at Apply time.
func (b Batch) Validate() error {
	if len(b.Append) == 0 && len(b.Delete) == 0 {
		return errors.New("delta: empty mutation batch: nothing to append or delete")
	}
	seen := make(map[int]bool, len(b.Delete))
	for _, id := range b.Delete {
		if seen[id] {
			return fmt.Errorf("delta: duplicate delete ID %d", id)
		}
		seen[id] = true
	}
	for i, row := range b.Append {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("delta: appended row %d attribute %d is not finite", i, j)
			}
		}
	}
	return nil
}

// TupleStatus is the per-tuple outcome of a batch, in batch order
// (deletes first, then appends).
type TupleStatus struct {
	// ID is the tuple the status describes; for appends, the freshly
	// assigned stable ID.
	ID int
	// Op is "append" or "delete".
	Op string
	// Status is "appended", "deleted", or "not_found" (a delete of an ID
	// not present — reported, not fatal, so retried batches stay
	// idempotent).
	Status string
}

// Change describes one applied batch: the snapshots around it and the
// facts the maintainer classifies against.
type Change struct {
	// PrevGen and Gen are the generations before and after the batch.
	// The maintainer uses PrevGen to detect gaps: a pool valid for some
	// other generation must not classify this change.
	PrevGen, Gen int64
	// Table is the raw table after the batch (stable IDs materialized).
	Table *dataset.Table
	// Before and After are the normalized snapshots around the batch.
	Before, After *core.Dataset
	// Inserted are the IDs assigned to appended tuples; Deleted the IDs
	// actually removed (not-found deletes are excluded).
	Inserted, Deleted []int
	// Rescaled reports that the raw min-max normalization bounds moved:
	// surviving tuples' normalized coordinates differ between Before and
	// After, which forecloses every containment argument.
	Rescaled bool
	// Statuses is the per-tuple outcome report, deletes first.
	Statuses []TupleStatus
}

// Log is the mutation log of one dataset: the current raw table (with
// stable tuple IDs), its normalized snapshot, and a monotonically
// increasing generation. Snapshots are immutable — Apply builds new ones
// copy-on-write — so readers holding an older generation's table or
// dataset are never invalidated. Apply calls are serialized internally;
// generations are assigned by the caller (the registry owns the
// cache-key-unique counter) and must strictly increase.
type Log struct {
	mu    sync.Mutex
	table *dataset.Table
	data  *core.Dataset
	// mins and maxs are table's raw normalization bounds, kept so a batch
	// computes only its new table's bounds to detect a rescale.
	mins, maxs []float64
	gen        int64
	batches    int64
	// maint carries the revalidation pools across this log's batches; it
	// lives and dies with the log.
	maint Maintainer
}

// NewLog starts a mutation log at the given generation. The table is
// normalized once to seed the snapshot; tables without materialized IDs
// get the identity assignment on first mutation.
func NewLog(t *dataset.Table, gen int64) (*Log, error) {
	data, err := t.Normalize()
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	mins, maxs, err := t.Bounds()
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	return &Log{table: t, data: data, mins: mins, maxs: maxs, gen: gen}, nil
}

// Maintainer returns the log's maintainer: the revalidation pools of the
// cached answers over this log's generations.
func (l *Log) Maintainer() *Maintainer { return &l.maint }

// Gen returns the current generation.
func (l *Log) Gen() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Batches returns how many mutation batches have been applied.
func (l *Log) Batches() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.batches
}

// Snapshot returns the current raw table, normalized dataset, and
// generation. The returned values are immutable.
func (l *Log) Snapshot() (*dataset.Table, *core.Dataset, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.table, l.data, l.gen
}

// Apply validates and applies one batch. Deletes run first, then
// appends. The new generation comes from assignGen, invoked exactly once
// — under the log's lock, after validation succeeds — so a caller-owned
// counter (the registry's cache-key-unique one) hands out generations in
// the same order batches apply, even under concurrent mutations. The
// assigned generation must exceed the current one.
//
// commit, when non-nil, is the durability hook: it runs under the log's
// lock after the change is fully built but before the log's state
// advances, and a commit error rejects the batch with the log unchanged.
// That placement gives write-ahead semantics for free — per-dataset WAL
// records land in generation order because the lock serializes them, and
// a batch whose record never reached the log is a batch that never
// happened. On any error the log is unchanged.
func (l *Log) Apply(b Batch, assignGen func() int64, commit func(*Change) error) (*Change, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ch := &Change{PrevGen: l.gen, Before: l.data}

	table := l.table
	if len(b.Delete) > 0 {
		next, removed, err := table.DeleteRows(b.Delete)
		if err != nil {
			return nil, fmt.Errorf("delta: %w", err)
		}
		gone := make(map[int]bool, len(removed))
		for _, id := range removed {
			gone[id] = true
		}
		for _, id := range b.Delete {
			status := "not_found"
			if gone[id] {
				status = "deleted"
			}
			ch.Statuses = append(ch.Statuses, TupleStatus{ID: id, Op: "delete", Status: status})
		}
		ch.Deleted = removed
		table = next
	}
	if len(b.Append) > 0 {
		next, assigned, err := table.AppendRows(b.Append)
		if err != nil {
			return nil, fmt.Errorf("delta: %w", err)
		}
		for _, id := range assigned {
			ch.Statuses = append(ch.Statuses, TupleStatus{ID: id, Op: "append", Status: "appended"})
		}
		ch.Inserted = assigned
		table = next
	}

	data, err := table.Normalize()
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	mins, maxs, err := table.Bounds()
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	// The raw normalization bounds moved: surviving tuples change
	// normalized coordinates.
	ch.Rescaled = !slices.Equal(mins, l.mins) || !slices.Equal(maxs, l.maxs)
	newGen := assignGen()
	if newGen <= l.gen {
		return nil, fmt.Errorf("delta: generation %d does not advance %d", newGen, l.gen)
	}
	ch.Gen = newGen
	ch.Table, ch.After = table, data
	if commit != nil {
		if err := commit(ch); err != nil {
			return nil, err
		}
	}
	l.table, l.data, l.gen = table, data, newGen
	l.mins, l.maxs = mins, maxs
	l.batches++
	return ch, nil
}
