package rrr_test

// Cancellation tests for the context-first Solver API: every algorithm's
// hot loop must notice a dead context and return a typed error within a
// tight bound of the cancellation — the acceptance criterion is 100ms,
// and the internal check intervals put the real latency in microseconds.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"rrr"
)

// slowDataset builds an input sized so the named algorithm runs for at
// least hundreds of milliseconds — long enough that a cancellation issued
// a few dozen milliseconds in is guaranteed to land mid-flight.
func slowDataset(t *testing.T, algorithm rrr.Algorithm) (*rrr.Dataset, int, []rrr.Option) {
	t.Helper()
	switch algorithm {
	case rrr.Algo2DRRR:
		// Points on the quarter circle (cos φ, sin φ): no tuple dominates
		// another, so the sweep's k-skyband prefilter keeps every one, and
		// every pair exchanges once — n(n−1)/2 ≈ 8M events at n = 4000,
		// seconds of sweeping.
		const n = 4000
		points := make([][]float64, n)
		for i := range points {
			phi := (float64(i) + 0.5) / n * math.Pi / 2
			points[i] = []float64{math.Cos(phi), math.Sin(phi)}
		}
		d, err := rrr.NewDataset(points)
		if err != nil {
			t.Fatal(err)
		}
		return d, 20, nil
	case rrr.AlgoMDRRR:
		// A huge termination threshold keeps K-SETr drawing essentially
		// forever (bounded only by the 2M soft draw cap).
		d, err := rrr.Independent(3000, 5, 1).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return d, 10, []rrr.Option{rrr.WithSamplerTermination(1 << 30)}
	case rrr.AlgoMDRC:
		// The k = 1 corner case: adjacent top-1 regions share no tuple, so
		// the recursion traces every region boundary — the repository's
		// documented non-termination pathology, here put to good use.
		d, err := rrr.AntiCorrelated(500, 4, 1).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return d, 1, nil
	}
	t.Fatalf("no slow input for %s", algorithm)
	return nil, 0, nil
}

// TestSolveCancellation is the acceptance-criteria test: canceling the
// context of an in-flight Solve on every algorithm returns a typed error
// satisfying errors.Is(err, context.Canceled) within 100ms.
func TestSolveCancellation(t *testing.T) {
	for _, algorithm := range []rrr.Algorithm{rrr.Algo2DRRR, rrr.AlgoMDRRR, rrr.AlgoMDRC} {
		algorithm := algorithm
		t.Run(string(algorithm), func(t *testing.T) {
			t.Parallel()
			d, k, opts := slowDataset(t, algorithm)
			solver := rrr.New(append(opts, rrr.WithAlgorithm(algorithm), rrr.WithSeed(1))...)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			type outcome struct {
				res *rrr.Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := solver.Solve(ctx, d, k)
				done <- outcome{res, err}
			}()

			// Let the solve reach its hot loop, then pull the plug.
			time.Sleep(50 * time.Millisecond)
			canceledAt := time.Now()
			cancel()

			select {
			case o := <-done:
				latency := time.Since(canceledAt)
				if o.err == nil {
					t.Fatalf("solve finished (size %d) before cancellation; input not slow enough", len(o.res.IDs))
				}
				if !errors.Is(o.err, context.Canceled) {
					t.Fatalf("errors.Is(err, context.Canceled) = false: %v", o.err)
				}
				if !errors.Is(o.err, rrr.ErrCanceled) {
					t.Fatalf("errors.Is(err, rrr.ErrCanceled) = false: %v", o.err)
				}
				var solveErr *rrr.Error
				if !errors.As(o.err, &solveErr) {
					t.Fatalf("error is not a *rrr.Error: %v", o.err)
				}
				if solveErr.Algorithm != algorithm {
					t.Fatalf("error names algorithm %q, want %q", solveErr.Algorithm, algorithm)
				}
				if solveErr.KindName() != "canceled" {
					t.Fatalf("KindName() = %q, want canceled", solveErr.KindName())
				}
				if latency > 100*time.Millisecond {
					t.Fatalf("solve returned %v after cancellation, want <= 100ms", latency)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("solve never returned after cancellation")
			}
		})
	}
}

// TestSolveDeadline: an expiring deadline behaves like cancellation but
// its chain reports context.DeadlineExceeded, and the partial stats show
// the work done before the cutoff.
func TestSolveDeadline(t *testing.T) {
	d, k, _ := slowDataset(t, rrr.AlgoMDRC)
	solver := rrr.New(rrr.WithAlgorithm(rrr.AlgoMDRC))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err := solver.Solve(ctx, d, k)
	if err == nil {
		t.Fatal("solve beat a 60ms deadline on the k=1 pathology")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, rrr.ErrCanceled) {
		t.Fatalf("want DeadlineExceeded + ErrCanceled in chain, got %v", err)
	}
	var solveErr *rrr.Error
	if !errors.As(err, &solveErr) {
		t.Fatalf("error is not a *rrr.Error: %v", err)
	}
	if solveErr.Partial.Nodes == 0 {
		t.Fatal("partial stats report zero nodes for a solve that ran 60ms")
	}
	if solveErr.Partial.Elapsed <= 0 {
		t.Fatal("partial stats report zero elapsed time")
	}
}

// TestSolvePreCanceled: a context that is already dead must not start any
// work, on any algorithm.
func TestSolvePreCanceled(t *testing.T) {
	d, err := rrr.Independent(50, 3, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algorithm := range []rrr.Algorithm{rrr.AlgoMDRRR, rrr.AlgoMDRC} {
		_, err := rrr.New(rrr.WithAlgorithm(algorithm)).Solve(ctx, d, 5)
		if !errors.Is(err, rrr.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-canceled context: err = %v", algorithm, err)
		}
	}
}

// TestNodeBudgetExhausted: WithNodeBudget is a hard budget — MDRC fails
// typed instead of degrading to the fallback rule.
func TestNodeBudgetExhausted(t *testing.T) {
	d, k, _ := slowDataset(t, rrr.AlgoMDRC)
	solver := rrr.New(rrr.WithAlgorithm(rrr.AlgoMDRC), rrr.WithNodeBudget(500))
	_, err := solver.Solve(context.Background(), d, k)
	if !errors.Is(err, rrr.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	var solveErr *rrr.Error
	if !errors.As(err, &solveErr) {
		t.Fatalf("error is not a *rrr.Error: %v", err)
	}
	if solveErr.KindName() != "budget_exhausted" {
		t.Fatalf("KindName() = %q, want budget_exhausted", solveErr.KindName())
	}
	if solveErr.Partial.Nodes < 500 {
		t.Fatalf("partial nodes = %d, want >= the 500 budget", solveErr.Partial.Nodes)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatal("budget exhaustion must not masquerade as context cancellation")
	}
}

// TestDrawBudgetExhausted: WithDrawBudget is a hard budget — K-SETr fails
// typed instead of silently truncating the k-set collection.
func TestDrawBudgetExhausted(t *testing.T) {
	d, err := rrr.Independent(200, 4, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	solver := rrr.New(rrr.WithAlgorithm(rrr.AlgoMDRRR),
		rrr.WithSamplerTermination(1<<30), rrr.WithDrawBudget(150), rrr.WithSeed(1))
	_, err = solver.Solve(context.Background(), d, 5)
	if !errors.Is(err, rrr.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	var solveErr *rrr.Error
	if !errors.As(err, &solveErr) {
		t.Fatalf("error is not a *rrr.Error: %v", err)
	}
	if solveErr.Partial.Draws != 150 {
		t.Fatalf("partial draws = %d, want exactly the 150 budget", solveErr.Partial.Draws)
	}
	if solveErr.Partial.KSets == 0 {
		t.Fatal("partial stats lost the k-sets discovered before the budget hit")
	}
}

// TestMinimalKForSizeCancellation: the dual solver must stop re-solving
// after cancellation and hand back the best feasible (k, representative)
// it had proven, inside the typed error's partial stats.
func TestMinimalKForSizeCancellation(t *testing.T) {
	// size = n makes every probe feasible, so the binary search walks
	// mid-values all the way down to k = 1 — where MDRC's pathology
	// stalls and the progress-triggered cancel fires. By then the first
	// probes (large k, single recursion node) have long succeeded.
	d, err := rrr.AntiCorrelated(300, 4, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	solver := rrr.New(
		rrr.WithAlgorithm(rrr.AlgoMDRC),
		rrr.WithProgress(func(p rrr.Progress) {
			if p.Nodes > 256 {
				cancel()
			}
		}),
	)
	gotK, res, err := solver.MinimalKForSize(ctx, d, d.N())
	if err == nil {
		t.Fatalf("search completed (k=%d) despite the cancel trigger", gotK)
	}
	if gotK != 0 || res != nil {
		t.Fatalf("canceled search returned (%d, %v), want zero values with the best inside the error", gotK, res)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, rrr.ErrCanceled) {
		t.Fatalf("want Canceled chain, got %v", err)
	}
	var solveErr *rrr.Error
	if !errors.As(err, &solveErr) {
		t.Fatalf("error is not a *rrr.Error: %v", err)
	}
	if solveErr.Op != "minimal-k" {
		t.Fatalf("Op = %q, want minimal-k", solveErr.Op)
	}
	if solveErr.Partial.Best == nil || solveErr.Partial.BestK < 1 {
		t.Fatalf("partial best = (%d, %v), want the pre-cancel feasible result",
			solveErr.Partial.BestK, solveErr.Partial.Best)
	}
	if len(solveErr.Partial.Best.IDs) == 0 || len(solveErr.Partial.Best.IDs) > d.N() {
		t.Fatalf("best result has %d IDs", len(solveErr.Partial.Best.IDs))
	}
}

// TestMinimalKForSizePreCanceled: a dead context stops the search before
// the first probe.
func TestMinimalKForSizePreCanceled(t *testing.T) {
	d, err := rrr.Independent(50, 3, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = rrr.New().MinimalKForSize(ctx, d, 5)
	if !errors.Is(err, rrr.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	var solveErr *rrr.Error
	if !errors.As(err, &solveErr) || solveErr.Partial.BestK != 0 || solveErr.Partial.Best != nil {
		t.Fatalf("pre-canceled search should carry no best result: %v", err)
	}
}

// TestProgressReporting: the WithProgress callback observes a running
// MDRC solve's node counter growing.
func TestProgressReporting(t *testing.T) {
	d, err := rrr.AntiCorrelated(200, 4, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var calls, lastNodes int
	solver := rrr.New(
		rrr.WithAlgorithm(rrr.AlgoMDRC),
		rrr.WithNodeBudget(2000),
		rrr.WithProgress(func(p rrr.Progress) {
			calls++
			if p.Nodes < lastNodes {
				t.Errorf("progress nodes went backwards: %d -> %d", lastNodes, p.Nodes)
			}
			lastNodes = p.Nodes
			if p.Algorithm != rrr.AlgoMDRC {
				t.Errorf("progress algorithm = %q", p.Algorithm)
			}
		}),
	)
	// k = 1 guarantees enough nodes for several progress ticks before the
	// budget error; the outcome (error) is incidental here.
	_, _ = solver.Solve(context.Background(), d, 1)
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
	if lastNodes == 0 {
		t.Fatal("progress never reported nonzero nodes")
	}
}
