package service

import (
	"context"
	"strings"
	"testing"

	"rrr/internal/delta"
)

// anchoredCSV is a 2-D dataset whose normalization bounds are pinned by
// the corner rows 0 ((0,0)) and 1 ((1,1)), so interior mutations never
// rescale: the still-exact and repairable paths stay reachable.
const anchoredCSV = "a:+,b:+\n0,0\n1,1\n0.9,0.2\n0.2,0.9\n0.6,0.6\n0.3,0.3\n0.5,0.1\n"

func newDeltaService(t *testing.T) *Service {
	t.Helper()
	svc := New(Config{Seed: 1, DeltaMaintenance: true})
	if _, err := svc.Registry().RegisterCSV("anchored", strings.NewReader(anchoredCSV)); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestMutateStillExactNeverRecomputes is the acceptance assertion: a
// mutation classified still-exact re-keys the cached answer, so the next
// request is a cache hit — no recompute — and the delta counters prove it.
func TestMutateStillExactNeverRecomputes(t *testing.T) {
	svc := newDeltaService(t)
	ctx := context.Background()

	rep, err := svc.Representative(ctx, "anchored", 2, "2drrr")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached {
		t.Fatal("first request reported cached")
	}
	before := svc.Metrics().Snapshot()

	// A deeply dominated interior append: still-exact for every cached k.
	mut, err := svc.Mutate(ctx, "anchored", delta.Batch{Append: [][]float64{{0.05, 0.05}}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Gen != 2 || mut.N != 8 { // registered at gen 1, mutated to gen 2
		t.Fatalf("mutation gen=%d n=%d", mut.Gen, mut.N)
	}
	if mut.Stats.Revalidated != 1 || mut.Stats.Repaired != 0 || mut.Stats.Recomputed != 0 {
		t.Fatalf("stats = %+v, want exactly one revalidation", mut.Stats)
	}

	rep2, err := svc.Representative(ctx, "anchored", 2, "2drrr")
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Cached {
		t.Fatal("post-mutation request missed the cache: still-exact triggered a recompute")
	}
	if len(rep2.IDs) != len(rep.IDs) {
		t.Fatalf("revalidated IDs %v != original %v", rep2.IDs, rep.IDs)
	}
	for i := range rep.IDs {
		if rep2.IDs[i] != rep.IDs[i] {
			t.Fatalf("revalidated IDs %v != original %v", rep2.IDs, rep.IDs)
		}
	}
	after := svc.Metrics().Snapshot()
	if after.CacheMisses != before.CacheMisses {
		t.Fatalf("cache misses grew %d -> %d across a still-exact revalidation",
			before.CacheMisses, after.CacheMisses)
	}
	if after.Delta.Mutations != 1 || after.Delta.Revalidated != 1 || after.Delta.Recomputed != 0 {
		t.Fatalf("delta counters = %+v", after.Delta)
	}
}

// TestMutateRepairMatchesFreshSolve forces the repairable path and checks
// the repaired cache entry serves exactly what a fresh solve on the
// mutated dataset produces.
func TestMutateRepairMatchesFreshSolve(t *testing.T) {
	svc := newDeltaService(t)
	ctx := context.Background()

	if _, err := svc.Representative(ctx, "anchored", 2, "2drrr"); err != nil {
		t.Fatal(err)
	}
	// An insert crowding the top corner crosses into the candidate pool.
	mut, err := svc.Mutate(ctx, "anchored", delta.Batch{Append: [][]float64{{0.95, 0.97}}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Stats.Repaired != 1 || mut.Stats.Recomputed != 0 {
		t.Fatalf("stats = %+v, want exactly one repair", mut.Stats)
	}
	rep, err := svc.Representative(ctx, "anchored", 2, "2drrr")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cached {
		t.Fatal("repaired entry missed the cache")
	}

	// A parallel service registered directly at the mutated state is the
	// fresh-solve oracle.
	oracle := New(Config{Seed: 1})
	entry, err := svc.Registry().Get("anchored")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Registry().Register("anchored", entry.Table); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Representative(ctx, "anchored", 2, "2drrr")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.IDs) != len(want.IDs) {
		t.Fatalf("repaired IDs %v != fresh %v", rep.IDs, want.IDs)
	}
	for i := range want.IDs {
		if rep.IDs[i] != want.IDs[i] {
			t.Fatalf("repaired IDs %v != fresh %v", rep.IDs, want.IDs)
		}
	}
}

// TestMutateStaleInvalidates forces the stale path (deleting a tuple the
// cached answer serves) and checks the entry is gone, lazily recomputed,
// and correct.
func TestMutateStaleInvalidates(t *testing.T) {
	svc := newDeltaService(t)
	ctx := context.Background()

	rep, err := svc.Representative(ctx, "anchored", 2, "2drrr")
	if err != nil {
		t.Fatal(err)
	}
	// Served tuples are pool members by definition; deleting one that is
	// not a bound anchor keeps the mutation un-rescaled but stale.
	victim := -1
	for _, id := range rep.IDs {
		if id != 0 && id != 1 {
			victim = id
		}
	}
	if victim < 0 {
		// The representative may be just the (1,1) anchor; delete an
		// interior pool member instead: (0.9,0.2) is in every top-2 pool.
		victim = 2
	}
	mut, err := svc.Mutate(ctx, "anchored", delta.Batch{Delete: []int{victim}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Stats.Recomputed != 1 || mut.Stats.Revalidated != 0 {
		t.Fatalf("stats = %+v, want exactly one recompute", mut.Stats)
	}
	misses := svc.Metrics().Snapshot().CacheMisses
	rep2, err := svc.Representative(ctx, "anchored", 2, "2drrr")
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Cached {
		t.Fatal("stale entry served from cache")
	}
	if got := svc.Metrics().Snapshot().CacheMisses; got != misses+1 {
		t.Fatalf("stale request did not recompute: misses %d -> %d", misses, got)
	}
	for _, id := range rep2.IDs {
		if id == victim {
			t.Fatalf("recomputed answer still serves deleted tuple %d", victim)
		}
	}
}

// TestMutateValidation covers the batch-shape rejections and the
// disabled-engine error.
func TestMutateValidation(t *testing.T) {
	svc := newDeltaService(t)
	ctx := context.Background()
	cases := []struct {
		name string
		b    delta.Batch
		want string
	}{
		{"empty", delta.Batch{}, "empty mutation batch"},
		{"dup", delta.Batch{Delete: []int{3, 3}}, "duplicate delete ID"},
		{"arity", delta.Batch{Append: [][]float64{{1}}}, "want 2"},
		{"delete-all", delta.Batch{Delete: []int{0, 1, 2, 3, 4, 5, 6}}, "no rows"},
	}
	for _, tc := range cases {
		_, err := svc.Mutate(ctx, "anchored", tc.b)
		if err == nil || !errorsIsBadRequest(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want bad request mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := svc.Mutate(ctx, "ghost", delta.Batch{Delete: []int{1}}); err == nil || !errorsIsNotFound(err) {
		t.Errorf("unknown dataset: err = %v, want not found", err)
	}
	// A failed batch must not advance the generation.
	entry, err := svc.Registry().Get("anchored")
	if err != nil {
		t.Fatal(err)
	}
	genBefore := entry.Gen
	if _, err := svc.Mutate(ctx, "anchored", delta.Batch{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	entry, _ = svc.Registry().Get("anchored")
	if entry.Gen != genBefore {
		t.Fatalf("failed batch advanced generation %d -> %d", genBefore, entry.Gen)
	}

	// Engine off: typed 4xx, not a panic or a silent no-op.
	plain := New(Config{})
	if _, err := plain.Registry().RegisterCSV("x", strings.NewReader(anchoredCSV)); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Mutate(ctx, "x", delta.Batch{Delete: []int{1}}); err == nil || !errorsIsBadRequest(err) {
		t.Errorf("disabled engine: err = %v, want bad request", err)
	}
}

// TestMutateGenerationsAreMonotone checks generations and tuple IDs stay
// stable across a mutation sequence, including ID non-reuse after deletes.
func TestMutateGenerationsAreMonotone(t *testing.T) {
	svc := newDeltaService(t)
	ctx := context.Background()
	entry, _ := svc.Registry().Get("anchored")
	lastGen := entry.Gen
	mut, err := svc.Mutate(ctx, "anchored", delta.Batch{Append: [][]float64{{0.4, 0.4}}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Gen <= lastGen {
		t.Fatalf("generation did not advance: %d -> %d", lastGen, mut.Gen)
	}
	appended := mut.Tuples[0].ID
	mut2, err := svc.Mutate(ctx, "anchored", delta.Batch{Delete: []int{appended}})
	if err != nil {
		t.Fatal(err)
	}
	if mut2.Gen <= mut.Gen {
		t.Fatalf("generation did not advance: %d -> %d", mut.Gen, mut2.Gen)
	}
	mut3, err := svc.Mutate(ctx, "anchored", delta.Batch{Append: [][]float64{{0.45, 0.45}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := mut3.Tuples[0].ID; got <= appended {
		t.Fatalf("deleted ID %d reused (new append got %d)", appended, got)
	}
}

// TestMutateConcurrentWithReads hammers one dataset with mutation batches
// while readers request representatives — the interleaving the generation
// machinery exists for. Correctness here is "no race, no panic, every
// response consistent": served IDs must exist in some recent generation.
func TestMutateConcurrentWithReads(t *testing.T) {
	svc := newDeltaService(t)
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if i%5 == 4 {
				mut, err := svc.Mutate(ctx, "anchored", delta.Batch{Append: [][]float64{{0.95, 0.96}}})
				if err != nil {
					t.Errorf("mutate: %v", err)
					return
				}
				_, err = svc.Mutate(ctx, "anchored", delta.Batch{Delete: []int{mut.Tuples[0].ID}})
				if err != nil {
					t.Errorf("mutate: %v", err)
					return
				}
				continue
			}
			if _, err := svc.Mutate(ctx, "anchored", delta.Batch{Append: [][]float64{{0.1, 0.1}}}); err != nil {
				t.Errorf("mutate: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		rep, err := svc.Representative(ctx, "anchored", 2, "2drrr")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(rep.IDs) == 0 {
			t.Fatalf("read %d: empty representative", i)
		}
	}
	<-done
}

func errorsIsBadRequest(err error) bool { return err != nil && strings.Contains(kindOf(err), "bad") }
func errorsIsNotFound(err error) bool {
	return err != nil && strings.Contains(kindOf(err), "not_found")
}

func kindOf(err error) string {
	_, kind := classifyError(err)
	return kind
}
