package delta_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"rrr/internal/core"
	"rrr/internal/dataset"
	"rrr/internal/delta"
	"rrr/internal/topk"
)

// anchored2D builds a 2-D table whose bounds are pinned by explicit corner
// rows, so interior mutations never rescale the normalization.
func anchored2D() *dataset.Table {
	return &dataset.Table{
		Name:  "anchored",
		Attrs: []dataset.Attr{{Name: "a", HigherBetter: true}, {Name: "b", HigherBetter: true}},
		Rows: [][]float64{
			{0, 0}, {1, 1}, // bound anchors
			{0.9, 0.2}, {0.2, 0.9}, {0.6, 0.6}, {0.3, 0.3}, {0.5, 0.1},
		},
	}
}

// genAt adapts a literal generation to Log.Apply's assignGen callback.
func genAt(gen int64) func() int64 {
	return func() int64 { return gen }
}

func mustLog(t *testing.T, tb *dataset.Table) *delta.Log {
	t.Helper()
	l, err := delta.NewLog(tb, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBatchValidate(t *testing.T) {
	nan := 0.0
	nan /= nan
	cases := []struct {
		name string
		b    delta.Batch
		want string
	}{
		{"empty", delta.Batch{}, "empty mutation batch"},
		{"dup-delete", delta.Batch{Delete: []int{3, 3}}, "duplicate delete ID"},
		{"nan", delta.Batch{Append: [][]float64{{nan, 1}}}, "not finite"},
		{"ok", delta.Batch{Append: [][]float64{{0.5, 0.5}}}, ""},
	}
	for _, tc := range cases {
		err := tc.b.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestLogApplyStatusesAndGenerations(t *testing.T) {
	l := mustLog(t, anchored2D())
	if l.Gen() != 1 {
		t.Fatalf("gen = %d, want 1", l.Gen())
	}
	ch, err := l.Apply(delta.Batch{Append: [][]float64{{0.4, 0.4}}, Delete: []int{6, 99}}, genAt(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Gen != 2 || l.Gen() != 2 || l.Batches() != 1 {
		t.Fatalf("gen=%d logGen=%d batches=%d", ch.Gen, l.Gen(), l.Batches())
	}
	want := []delta.TupleStatus{
		{ID: 6, Op: "delete", Status: "deleted"},
		{ID: 99, Op: "delete", Status: "not_found"},
		{ID: 7, Op: "append", Status: "appended"},
	}
	if len(ch.Statuses) != len(want) {
		t.Fatalf("statuses = %+v, want %+v", ch.Statuses, want)
	}
	for i, w := range want {
		if ch.Statuses[i] != w {
			t.Fatalf("status[%d] = %+v, want %+v", i, ch.Statuses[i], w)
		}
	}
	if len(ch.Inserted) != 1 || ch.Inserted[0] != 7 || len(ch.Deleted) != 1 || ch.Deleted[0] != 6 {
		t.Fatalf("inserted=%v deleted=%v", ch.Inserted, ch.Deleted)
	}
	if ch.Rescaled {
		t.Fatal("interior mutation reported a rescale")
	}
	// Non-advancing generations are rejected.
	if _, err := l.Apply(delta.Batch{Delete: []int{0}}, genAt(2), nil); err == nil {
		t.Fatal("non-advancing generation accepted")
	}
	// Snapshots around the batch are distinct immutable generations.
	if ch.Before.N() != 7 || ch.After.N() != 7 {
		t.Fatalf("before n=%d after n=%d", ch.Before.N(), ch.After.N())
	}
	if _, ok := ch.After.ByID(6); ok {
		t.Fatal("deleted tuple visible in After")
	}
	if _, ok := ch.Before.ByID(6); !ok {
		t.Fatal("deleted tuple missing from Before")
	}
}

func TestLogApplyRescaleDetection(t *testing.T) {
	l := mustLog(t, anchored2D())
	ch, err := l.Apply(delta.Batch{Append: [][]float64{{2, 0.5}}}, genAt(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Rescaled {
		t.Fatal("out-of-bounds append did not report a rescale")
	}
	// Deleting a bound anchor rescales too.
	ch, err = l.Apply(delta.Batch{Delete: []int{7}}, genAt(3), nil) // remove the (2,0.5) outlier: max shrinks back
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Rescaled {
		t.Fatal("bound-witness delete did not report a rescale")
	}
}

// TestPoolContainment cross-checks BuildPool against brute force: the
// top-k members of many sampled functions must all be pool members, in 2-D
// (TopKRanges) and 4-D (Dominance).
func TestPoolContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range []int{2, 4} {
		tb := dataset.Independent(300, dims, 11)
		d, err := tb.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		const k = 8
		pool, err := delta.BuildPool(context.Background(), d, k)
		if err != nil {
			t.Fatal(err)
		}
		if pool.Len() == 0 || pool.Len() > d.N() {
			t.Fatalf("dims=%d pool size %d", dims, pool.Len())
		}
		for trial := 0; trial < 200; trial++ {
			w := make([]float64, dims)
			for j := range w {
				w[j] = rng.Float64() + 1e-9
			}
			for _, id := range topk.TopK(d, core.NewLinearFunc(w...), k) {
				if !pool.Contains(id) {
					t.Fatalf("dims=%d: top-%d member %d outside pool", dims, k, id)
				}
			}
		}
	}
}

func poolAndChange(t *testing.T, b delta.Batch, k int) (*delta.Pool, *delta.Change) {
	t.Helper()
	l := mustLog(t, anchored2D())
	_, before, _ := l.Snapshot()
	pool, err := delta.BuildPool(context.Background(), before, k)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := l.Apply(b, genAt(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	return pool, ch
}

func TestClassifyStillExact(t *testing.T) {
	// A deeply dominated interior insert and the delete of a non-pool
	// tuple leave every top-k unchanged.
	pool, ch := poolAndChange(t, delta.Batch{Append: [][]float64{{0.1, 0.1}}, Delete: []int{5}}, 2)
	if pool.Contains(5) {
		t.Skip("tuple 5 unexpectedly in pool; test dataset assumption broken")
	}
	class, next := pool.Classify(ch)
	if class != delta.StillExact {
		t.Fatalf("class = %v, want still-exact", class)
	}
	if next.Len() != pool.Len() {
		t.Fatalf("still-exact changed the pool: %d vs %d", next.Len(), pool.Len())
	}
}

func TestClassifyRepairable(t *testing.T) {
	// An insert near the top-right corner beats everything except the
	// (1,1) anchor: it crosses into the pool.
	pool, ch := poolAndChange(t, delta.Batch{Append: [][]float64{{0.95, 0.97}}}, 2)
	class, next := pool.Classify(ch)
	if class != delta.Repaired {
		t.Fatalf("class = %v, want repairable", class)
	}
	if !next.Contains(ch.Inserted[0]) {
		t.Fatalf("patched pool missing crossing insert %d", ch.Inserted[0])
	}
	if next.Len() != pool.Len()+1 {
		t.Fatalf("patched pool size %d, want %d", next.Len(), pool.Len()+1)
	}
}

func TestClassifyStale(t *testing.T) {
	// Deleting a pool member (the (1,1) anchor is in every top-k pool...
	// but it is also a bound witness; use a non-anchor pool member).
	l := mustLog(t, anchored2D())
	_, before, _ := l.Snapshot()
	pool, err := delta.BuildPool(context.Background(), before, 2)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for _, id := range pool.IDs {
		if id != 0 && id != 1 { // keep the bound anchors
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Fatal("no non-anchor pool member to delete")
	}
	ch, err := l.Apply(delta.Batch{Delete: []int{victim}}, genAt(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Rescaled {
		t.Fatalf("deleting %d rescaled the table; pick a different victim", victim)
	}
	class, next := pool.Classify(ch)
	if class != delta.Recomputed || next != nil {
		t.Fatalf("class = %v pool = %v, want stale/nil", class, next)
	}
	// Rescales are stale regardless of pool membership.
	l2 := mustLog(t, anchored2D())
	_, before2, _ := l2.Snapshot()
	pool2, err := delta.BuildPool(context.Background(), before2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := l2.Apply(delta.Batch{Append: [][]float64{{3, 3}}}, genAt(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if class, _ := pool2.Classify(ch2); class != delta.Recomputed {
		t.Fatalf("rescale class = %v, want stale", class)
	}
}

func TestMaintainerApply(t *testing.T) {
	l := mustLog(t, anchored2D())
	m := delta.NewMaintainer()
	ch, err := l.Apply(delta.Batch{Append: [][]float64{{0.05, 0.05}}}, genAt(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := m.Apply(context.Background(), ch, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3} {
		if outcomes[k].Class != delta.StillExact {
			t.Fatalf("k=%d class = %v, want still-exact", k, outcomes[k].Class)
		}
	}
	// Second batch: pool for k=2 carried forward, k=3 dropped (not listed).
	ch, err = l.Apply(delta.Batch{Append: [][]float64{{0.96, 0.98}}}, genAt(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err = m.Apply(context.Background(), ch, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if outcomes[2].Class != delta.Repaired {
		t.Fatalf("class = %v, want repairable", outcomes[2].Class)
	}
	if !outcomes[2].Pool.Contains(ch.Inserted[0]) {
		t.Fatal("patched pool missing the crossing insert")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Apply(canceled, ch, []int{4}); err == nil {
		t.Fatal("canceled maintenance succeeded")
	}
}

// TestMaintainerGenerationGap is the pool-staleness regression test: a
// batch the maintainer never saw (no cached answers at the time) must not
// let a lagging pool certify a later change. The crossing insert of the
// unmaintained batch would be invisible to the stale pool; continuity
// tracking forces a rebuild from the correct Before snapshot, so deleting
// that insert is detected as a pool hit.
func TestMaintainerGenerationGap(t *testing.T) {
	l := mustLog(t, anchored2D())
	m := delta.NewMaintainer()
	// Batch 1: maintained; pools now stamped for gen 2.
	ch, err := l.Apply(delta.Batch{Append: [][]float64{{0.1, 0.1}}}, genAt(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := m.Apply(context.Background(), ch, []int{2}); err != nil || out[2].Class != delta.StillExact {
		t.Fatalf("batch 1: out=%+v err=%v", out, err)
	}
	// Batch 2: NOT maintained (imagine no cached answers at that moment).
	// Its insert (0.96,0.98) crosses into the top-2 pool.
	ch2, err := l.Apply(delta.Batch{Append: [][]float64{{0.96, 0.98}}}, genAt(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	crossing := ch2.Inserted[0]
	// Batch 3: maintained again — deletes the crossing insert. A lagging
	// gen-2 pool would not contain it and would misclassify this as
	// still-exact; the continuity check must rebuild and report stale.
	ch3, err := l.Apply(delta.Batch{Delete: []int{crossing}}, genAt(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Apply(context.Background(), ch3, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if out[2].Class != delta.Recomputed {
		t.Fatalf("gap-crossing delete classified %v, want stale", out[2].Class)
	}
}

func TestClassString(t *testing.T) {
	if delta.StillExact.String() != "still-exact" || delta.Repaired.String() != "repaired" ||
		delta.Recomputed.String() != "recomputed" || delta.Class(42).String() != "unknown" {
		t.Fatal("Class.String mismatch")
	}
}

func TestLogApplyCommitHook(t *testing.T) {
	l := mustLog(t, anchored2D())
	// A rejecting commit hook leaves the log unchanged: write-ahead
	// semantics mean a batch whose record never became durable never
	// happened.
	_, err := l.Apply(delta.Batch{Append: [][]float64{{0.4, 0.4}}}, genAt(2), func(*delta.Change) error {
		return errors.New("disk full")
	})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want the commit error", err)
	}
	if l.Gen() != 1 || l.Batches() != 0 {
		t.Fatalf("rejected commit advanced the log: gen=%d batches=%d", l.Gen(), l.Batches())
	}
	if tb, _, _ := l.Snapshot(); tb.N() != 7 {
		t.Fatalf("rejected commit mutated the table: n=%d", tb.N())
	}
	// An accepting hook sees the fully built change — assigned generation
	// included — exactly once, before the state advances.
	calls := 0
	ch, err := l.Apply(delta.Batch{Append: [][]float64{{0.4, 0.4}}}, genAt(2), func(c *delta.Change) error {
		calls++
		if c.Gen != 2 || c.PrevGen != 1 {
			t.Errorf("commit saw gens %d->%d, want 1->2", c.PrevGen, c.Gen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || ch.Gen != 2 || l.Gen() != 2 {
		t.Fatalf("calls=%d gen=%d logGen=%d", calls, ch.Gen, l.Gen())
	}
}
