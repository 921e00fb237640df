package rrr_test

// Tests of the batch solving engine: per-item equality with sequential
// Solve / MinimalKForSize calls (the engine shares work, never changes
// answers), the single-shared-sweep acceptance property, lockstep dual
// searches, partial results on cancellation, and worker-count invariance.

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"rrr"
	"rrr/internal/harness"
)

// sameResult compares everything deterministic about two results (Elapsed
// is wall-clock and excluded).
func sameResult(t *testing.T, label string, got, want *rrr.Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("%s: IDs %v, want %v", label, got.IDs, want.IDs)
	}
	if got.Algorithm != want.Algorithm || got.KSets != want.KSets ||
		got.Nodes != want.Nodes || got.Draws != want.Draws {
		t.Fatalf("%s: stats (algo=%s ksets=%d nodes=%d draws=%d), want (algo=%s ksets=%d nodes=%d draws=%d)",
			label, got.Algorithm, got.KSets, got.Nodes, got.Draws,
			want.Algorithm, want.KSets, want.Nodes, want.Draws)
	}
}

func TestSolveBatchMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		kind string
		n, d int
		opts []rrr.Option
	}{
		{"2drrr", "dot", 400, 2, nil},
		{"mdrc-auto", "dot", 200, 3, nil},
		{"mdrrr", "bn", 120, 3, []rrr.Option{
			rrr.WithAlgorithm(rrr.AlgoMDRRR), rrr.WithSamplerTermination(40), rrr.WithSeed(7)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := harness.MakeDataset(tc.kind, tc.n, tc.d)
			if err != nil {
				t.Fatal(err)
			}
			solver := rrr.New(tc.opts...)
			reqs := []rrr.Request{
				{K: 10}, {K: 3}, {K: 25}, {K: 10}, // duplicate k on purpose
				{Size: 2},
				{K: tc.n + 5},   // infeasible: k > n
				{K: -1},         // invalid
				{K: 2, Size: 2}, // invalid: both set
				{},              // invalid: neither set
			}
			br, err := solver.SolveBatch(context.Background(), ds, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if len(br.Items) != len(reqs) {
				t.Fatalf("items = %d, want %d", len(br.Items), len(reqs))
			}
			for i, it := range br.Items[:4] {
				want, err := solver.Solve(context.Background(), ds, reqs[i].K)
				if err != nil {
					t.Fatal(err)
				}
				if it.Err != nil {
					t.Fatalf("item %d: %v", i, it.Err)
				}
				if it.K != reqs[i].K {
					t.Fatalf("item %d: K = %d, want %d", i, it.K, reqs[i].K)
				}
				sameResult(t, tc.name, it.Result, want)
			}
			// Dual item equals the sequential dual solve.
			wantK, wantRes, err := solver.MinimalKForSize(context.Background(), ds, 2)
			if err != nil {
				t.Fatal(err)
			}
			dual := br.Items[4]
			if dual.Err != nil || dual.K != wantK {
				t.Fatalf("dual: K=%d err=%v, want K=%d", dual.K, dual.Err, wantK)
			}
			sameResult(t, tc.name+" dual", dual.Result, wantRes)
			// The infeasible item reports the same typed error Solve does.
			infeasible := br.Items[5]
			if !errors.Is(infeasible.Err, rrr.ErrInfeasible) {
				t.Fatalf("k > n item: err = %v, want ErrInfeasible", infeasible.Err)
			}
			_, wantErr := solver.Solve(context.Background(), ds, tc.n+5)
			if wantErr == nil || infeasible.Err.Error() != wantErr.Error() {
				t.Fatalf("k > n item error %q, want sequential's %q", infeasible.Err, wantErr)
			}
			// Malformed requests fail their own item only.
			for i := 6; i < len(reqs); i++ {
				if br.Items[i].Err == nil || br.Items[i].Result != nil {
					t.Fatalf("malformed item %d not rejected: %+v", i, br.Items[i])
				}
				if errors.As(br.Items[i].Err, new(*rrr.Error)) {
					t.Fatalf("malformed item %d got a typed solve error: %v", i, br.Items[i].Err)
				}
			}
			// Work accounting: 4 distinct primal ks plus the dual's probes,
			// with the duplicate k and any grid-aligned probes reused.
			if br.Stats.Solves == 0 || br.Stats.Reused == 0 {
				t.Fatalf("stats = %+v, want solves and reuse", br.Stats)
			}
		})
	}
}

// TestSolveBatchDrawBudgetMatchesSolve: a batch MDRRR item that runs out
// of its hard draw budget fails exactly as Solve does at that k — same
// kind, op, cause and partial draws and k-sets — although the batch samples
// every k from one shared function stream.
func TestSolveBatchDrawBudgetMatchesSolve(t *testing.T) {
	d, err := rrr.Independent(200, 4, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	solver := rrr.New(rrr.WithAlgorithm(rrr.AlgoMDRRR),
		rrr.WithSamplerTermination(1<<30), rrr.WithDrawBudget(150), rrr.WithSeed(1))
	ks := []int{2, 5, 9}
	reqs := make([]rrr.Request, len(ks))
	for i, k := range ks {
		reqs[i] = rrr.Request{K: k}
	}
	br, err := solver.SolveBatch(context.Background(), d, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		_, solveErr := solver.Solve(context.Background(), d, k)
		var want, got *rrr.Error
		if !errors.As(solveErr, &want) || !errors.Is(solveErr, rrr.ErrBudgetExhausted) {
			t.Fatalf("k=%d: Solve err = %v, want a typed budget error", k, solveErr)
		}
		if !errors.As(br.Items[i].Err, &got) {
			t.Fatalf("k=%d: batch item err = %v, want a typed error", k, br.Items[i].Err)
		}
		if got.Kind != want.Kind || got.Op != want.Op || got.Cause.Error() != want.Cause.Error() ||
			got.Partial.Draws != want.Partial.Draws || got.Partial.KSets != want.Partial.KSets {
			t.Fatalf("k=%d: batch item error %+v (cause %q), Solve's %+v (cause %q)",
				k, *got, got.Cause, *want, want.Cause)
		}
	}
}

// TestDualMatchesBinarySearchOverSolve checks MinimalKForSize and SolveBatch
// dual items against an independent oracle: a binary search over Solve
// written here, sharing no code with the batch engine's dual search.
func TestDualMatchesBinarySearchOverSolve(t *testing.T) {
	cases := []struct {
		name string
		kind string
		n, d int
		opts []rrr.Option
	}{
		{"2drrr", "dot", 400, 2, nil},
		{"mdrc", "dot", 200, 3, nil},
		{"mdrrr", "bn", 120, 3, []rrr.Option{
			rrr.WithAlgorithm(rrr.AlgoMDRRR), rrr.WithSamplerTermination(40), rrr.WithSeed(7)}},
	}
	sizes := []int{1, 2, 3, 4}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := harness.MakeDataset(tc.kind, tc.n, tc.d)
			if err != nil {
				t.Fatal(err)
			}
			solver := rrr.New(tc.opts...)
			reqs := make([]rrr.Request, len(sizes))
			for i, size := range sizes {
				reqs[i] = rrr.Request{Size: size}
			}
			br, err := solver.SolveBatch(context.Background(), ds, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, size := range sizes {
				var wantK int
				var want *rrr.Result
				for lo, hi := 1, ds.N(); lo <= hi; {
					mid := (lo + hi) / 2
					res, err := solver.Solve(context.Background(), ds, mid)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.IDs) <= size {
						wantK, want = mid, res
						hi = mid - 1
					} else {
						lo = mid + 1
					}
				}
				gotK, got, err := solver.MinimalKForSize(context.Background(), ds, size)
				if err != nil {
					t.Fatal(err)
				}
				if gotK != wantK {
					t.Fatalf("size=%d: MinimalKForSize K = %d, oracle %d", size, gotK, wantK)
				}
				sameResult(t, tc.name+" MinimalKForSize", got, want)
				it := br.Items[i]
				if it.Err != nil || it.K != wantK {
					t.Fatalf("size=%d: batch item K = %d err = %v, oracle K = %d", size, it.K, it.Err, wantK)
				}
				sameResult(t, tc.name+" batch dual", it.Result, want)
			}
		})
	}
}

// TestSolveBatchSingleSweep is the acceptance criterion: 8 distinct k
// values on a tier-1 2-D dataset run the angular sweep exactly once, with
// per-item results identical to sequential solves.
func TestSolveBatchSingleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("the full-sweep batch grid is slow; run without -short")
	}
	ds, err := harness.MakeDataset("dot", 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	solver := rrr.New()
	ks := []int{5, 10, 20, 35, 50, 75, 100, 150}
	reqs := make([]rrr.Request, len(ks))
	for i, k := range ks {
		reqs[i] = rrr.Request{K: k}
	}
	br, err := solver.SolveBatch(context.Background(), ds, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if br.Stats.Sweeps != 1 {
		t.Fatalf("sweeps = %d, want exactly 1 for a primal-only 2-D batch", br.Stats.Sweeps)
	}
	if br.Stats.Solves != len(ks) {
		t.Fatalf("solves = %d, want %d", br.Stats.Solves, len(ks))
	}
	for i, k := range ks {
		want, err := solver.Solve(context.Background(), ds, k)
		if err != nil {
			t.Fatal(err)
		}
		if br.Items[i].Err != nil {
			t.Fatalf("k=%d: %v", k, br.Items[i].Err)
		}
		sameResult(t, "single-sweep batch", br.Items[i].Result, want)
	}
}

// TestSolveBatchDualLockstep: many dual queries binary search in lockstep,
// sharing one sweep per round — O(log n) sweeps total, not O(duals·log n).
func TestSolveBatchDualLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("the dual-lockstep batch grid is slow; run without -short")
	}
	ds, err := harness.MakeDataset("dot", 600, 2)
	if err != nil {
		t.Fatal(err)
	}
	solver := rrr.New()
	sizes := []int{1, 2, 4, 8}
	reqs := make([]rrr.Request, len(sizes))
	for i, sz := range sizes {
		reqs[i] = rrr.Request{Size: sz}
	}
	br, err := solver.SolveBatch(context.Background(), ds, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Binary search over [1, n] takes at most ceil(log2(n)) + 1 rounds;
	// each round costs at most one shared sweep.
	maxRounds := 1
	for n := ds.N(); n > 0; n >>= 1 {
		maxRounds++
	}
	if br.Stats.Sweeps > maxRounds {
		t.Fatalf("sweeps = %d for %d duals, want <= %d (one per lockstep round)",
			br.Stats.Sweeps, len(sizes), maxRounds)
	}
	for i, sz := range sizes {
		wantK, wantRes, err := solver.MinimalKForSize(context.Background(), ds, sz)
		if err != nil {
			t.Fatal(err)
		}
		if br.Items[i].Err != nil || br.Items[i].K != wantK {
			t.Fatalf("size=%d: K=%d err=%v, want K=%d", sz, br.Items[i].K, br.Items[i].Err, wantK)
		}
		sameResult(t, "dual lockstep", br.Items[i].Result, wantRes)
	}
}

// TestSolveBatchCanceled: a canceled batch answers nothing but fails every
// item with the typed cancellation error — and a cancellation arriving
// mid-batch keeps the answers already produced.
func TestSolveBatchCanceled(t *testing.T) {
	ds, err := harness.MakeDataset("dot", 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br, err := rrr.New().SolveBatch(ctx, ds, []rrr.Request{{K: 5}, {K: 9}, {Size: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range br.Items {
		if !errors.Is(it.Err, rrr.ErrCanceled) {
			t.Fatalf("item %d: err = %v, want ErrCanceled", i, it.Err)
		}
		var solveErr *rrr.Error
		if !errors.As(it.Err, &solveErr) {
			t.Fatalf("item %d: untyped error %v", i, it.Err)
		}
		wantOp := "solve"
		if br.Items[i].Request.Size > 0 {
			wantOp = "minimal-k"
		}
		if solveErr.Op != wantOp {
			t.Fatalf("item %d: op = %q, want %q", i, solveErr.Op, wantOp)
		}
	}
}

// TestSolveBatchPartialOnMidCancel: cancel from a progress callback during
// the dual phase; the primal answers computed before the cancellation
// survive.
func TestSolveBatchPartialOnMidCancel(t *testing.T) {
	ds, err := harness.MakeDataset("dot", 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var tails atomic.Int32
	solver := rrr.New(rrr.WithProgress(func(p rrr.Progress) {
		// The primal grid fans 8 cover tails (one progress call each); any
		// later progress comes from dual probe rounds. The callback can run
		// concurrently on pool workers, hence the atomic.
		if tails.Add(1) > 8 {
			cancel()
		}
	}))
	ks := []int{5, 10, 20, 35, 50, 75, 100, 150}
	reqs := make([]rrr.Request, 0, len(ks)+1)
	for _, k := range ks {
		reqs = append(reqs, rrr.Request{K: k})
	}
	reqs = append(reqs, rrr.Request{Size: 1})
	br, err := solver.SolveBatch(ctx, ds, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ks {
		if br.Items[i].Err != nil || br.Items[i].Result == nil {
			t.Fatalf("primal item %d lost to a later-phase cancellation: %v", i, br.Items[i].Err)
		}
	}
	dual := br.Items[len(ks)]
	if dual.Err == nil {
		// The dual may have finished before the cancellation landed (its
		// early probes reuse the primal grid); accept either outcome, but
		// a failure must be the typed cancellation.
		return
	}
	if !errors.Is(dual.Err, rrr.ErrCanceled) {
		t.Fatalf("dual err = %v, want ErrCanceled", dual.Err)
	}
}

// TestSolveBatchCancelInvariant sweeps the cancellation point across the
// whole batch schedule: wherever the cancel lands — including between a
// dual search converging and its sibling's next round — every item ends
// with exactly one of Result and Err set, and converged duals keep their
// answer.
func TestSolveBatchCancelInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("the cancellation invariant sweep is slow; run without -short")
	}
	ds, err := harness.MakeDataset("dot", 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Dual searches with different binary-search depths (size=n converges
	// a round or two before the tight sizes), so cancel points exist
	// where one search has converged while others are mid-flight.
	reqs := []rrr.Request{{Size: 500}, {Size: 1}, {Size: 2}, {Size: 3}}
	windowHit := false
	for cancelAt := int32(1); cancelAt <= 20; cancelAt++ {
		ctx, cancel := context.WithCancel(context.Background())
		var tails atomic.Int32
		solver := rrr.New(rrr.WithBatchWorkers(1), rrr.WithProgress(func(rrr.Progress) {
			if tails.Add(1) == cancelAt {
				cancel()
			}
		}))
		br, err := solver.SolveBatch(ctx, ds, reqs)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		kept, canceled := 0, 0
		for i, it := range br.Items {
			if (it.Result == nil) == (it.Err == nil) {
				t.Fatalf("cancelAt=%d item %d: Result=%v Err=%v — exactly one must be set",
					cancelAt, i, it.Result, it.Err)
			}
			if it.Err != nil {
				if !errors.Is(it.Err, rrr.ErrCanceled) {
					t.Fatalf("cancelAt=%d item %d: err = %v, want ErrCanceled", cancelAt, i, it.Err)
				}
				canceled++
			} else {
				kept++
			}
		}
		if kept > 0 && canceled > 0 {
			windowHit = true // a converged dual kept its answer past the cancel
		}
	}
	if !windowHit {
		t.Fatal("no cancel point produced converged-kept + canceled items together; the sweep no longer covers the regression window")
	}
}

// TestSolveBatchWorkerInvariance: the fan-out pool size never changes
// results.
func TestSolveBatchWorkerInvariance(t *testing.T) {
	ds, err := harness.MakeDataset("bn", 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []rrr.Request{{K: 3}, {K: 7}, {K: 12}, {Size: 3}}
	base := rrr.New(rrr.WithSamplerTermination(40), rrr.WithSeed(3), rrr.WithBatchWorkers(1))
	wide := rrr.New(rrr.WithSamplerTermination(40), rrr.WithSeed(3), rrr.WithBatchWorkers(8))
	a, err := base.SolveBatch(context.Background(), ds, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.SolveBatch(context.Background(), ds, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Items {
		if a.Items[i].K != b.Items[i].K {
			t.Fatalf("item %d: K %d vs %d across worker counts", i, a.Items[i].K, b.Items[i].K)
		}
		sameResult(t, "worker invariance", a.Items[i].Result, b.Items[i].Result)
	}
}

// TestSolveBatchValidation: batch-level misuse is a call error, not items.
func TestSolveBatchValidation(t *testing.T) {
	ds, err := harness.MakeDataset("dot", 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := rrr.New()
	if _, err := s.SolveBatch(context.Background(), nil, []rrr.Request{{K: 1}}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := s.SolveBatch(context.Background(), ds, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	s2 := rrr.New(rrr.WithAlgorithm(rrr.Algo2DRRR))
	if _, err := s2.SolveBatch(context.Background(), ds, []rrr.Request{{K: 1}}); !errors.Is(err, rrr.ErrInfeasible) {
		t.Fatalf("2drrr on 3-D data: err = %v, want ErrInfeasible", err)
	}
}
