package rrr_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"rrr"
)

// TestSolveMatchesSolveInto: Solve and the reuse API must produce
// identical outputs for every algorithm — SolveInto is the single
// implementation and Solve a thin wrapper. One Result is recycled across
// every case and solved into twice, so a leak of any field between solves
// (stale IDs, counters from another algorithm) fails the comparison.
func TestSolveMatchesSolveInto(t *testing.T) {
	d2, err := rrr.Independent(300, 2, 7).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	d3, err := rrr.Independent(300, 3, 7).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    *rrr.Dataset
		k    int
		opts []rrr.Option
	}{
		{"2drrr", d2, 10, []rrr.Option{rrr.WithAlgorithm(rrr.Algo2DRRR)}},
		{"2drrr-optimal", d2, 10, []rrr.Option{rrr.WithAlgorithm(rrr.Algo2DRRR), rrr.WithOptimalCover(true)}},
		{"mdrrr", d3, 10, []rrr.Option{rrr.WithAlgorithm(rrr.AlgoMDRRR), rrr.WithSeed(3)}},
		{"mdrc", d3, 10, []rrr.Option{rrr.WithAlgorithm(rrr.AlgoMDRC)}},
		{"auto-2d", d2, 5, nil},
		{"auto-3d", d3, 5, nil},
	}
	var reused rrr.Result
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			solver := rrr.New(tc.opts...)
			want, err := solver.Solve(context.Background(), tc.d, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				if err := solver.SolveInto(context.Background(), tc.d, tc.k, &reused); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(want.IDs) != fmt.Sprint(reused.IDs) {
					t.Fatalf("round %d: Solve IDs %v != SolveInto IDs %v", round, want.IDs, reused.IDs)
				}
				if want.Algorithm != reused.Algorithm || want.K != reused.K {
					t.Fatalf("round %d: header mismatch: Solve (%s, %d) != SolveInto (%s, %d)",
						round, want.Algorithm, want.K, reused.Algorithm, reused.K)
				}
				if reused.Elapsed <= 0 {
					t.Fatal("SolveInto result missing elapsed time")
				}
			}
		})
	}
}

// TestSolveIntoValidation: the reuse API fails fast on a nil receiver and
// inherits every Solve validation.
func TestSolveIntoValidation(t *testing.T) {
	d, err := rrr.Independent(20, 2, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s := rrr.New()
	if err := s.SolveInto(context.Background(), d, 5, nil); err == nil {
		t.Fatal("nil result accepted")
	}
	var res rrr.Result
	if err := s.SolveInto(context.Background(), nil, 5, &res); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if err := s.SolveInto(context.Background(), d, 0, &res); err == nil {
		t.Fatal("k = 0 accepted")
	}
}

// TestMinimalKDeterministicAcrossCalls: repeated dual searches on one
// Solver agree — the arena recycled between a search's probes (and between
// searches) carries no state into the next solve.
func TestMinimalKDeterministicAcrossCalls(t *testing.T) {
	d, err := rrr.Independent(200, 2, 5).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	solver := rrr.New()
	k1, res1, err := solver.MinimalKForSize(context.Background(), d, 3)
	if err != nil {
		t.Fatal(err)
	}
	k2, res2, err := solver.MinimalKForSize(context.Background(), d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || fmt.Sprint(res1.IDs) != fmt.Sprint(res2.IDs) {
		t.Fatalf("first search (%d, %v) != second (%d, %v)", k1, res1.IDs, k2, res2.IDs)
	}
}

// TestSolverConcurrentUse: one Solver shared by eight goroutines — as
// rrrd shares each algorithm's solver, and its arena free-list, across
// concurrent requests — answers every call exactly as a sequential run
// does. Each goroutine repeats one call at its own k: 2-D SolveInto into
// a recycled Result, a 3-D Solve, a SolveBatch mixing primal and dual
// queries, and a MinimalKForSize search. The auto solver runs 2DRRR and
// MDRC; the MDRRR solver runs every call through the K-SETr sampler's
// scratch.
func TestSolverConcurrentUse(t *testing.T) {
	ctx := context.Background()
	d2, err := rrr.Independent(300, 2, 7).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	d3, err := rrr.Independent(150, 3, 7).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	type call func(*rrr.Solver) ([]*rrr.Result, error)
	solveInto := func(k int) call {
		var res rrr.Result // recycled across rounds, as a serving loop would
		return func(s *rrr.Solver) ([]*rrr.Result, error) {
			if err := s.SolveInto(ctx, d2, k, &res); err != nil {
				return nil, err
			}
			out := res
			out.IDs = append([]int(nil), res.IDs...)
			return []*rrr.Result{&out}, nil
		}
	}
	solve := func(k int) call {
		return func(s *rrr.Solver) ([]*rrr.Result, error) {
			res, err := s.Solve(ctx, d3, k)
			return []*rrr.Result{res}, err
		}
	}
	batch := func(reqs ...rrr.Request) call {
		return func(s *rrr.Solver) ([]*rrr.Result, error) {
			br, err := s.SolveBatch(ctx, d2, reqs)
			if err != nil {
				return nil, err
			}
			out := make([]*rrr.Result, len(br.Items))
			for i, item := range br.Items {
				if item.Err != nil {
					return nil, item.Err
				}
				out[i] = item.Result
			}
			return out, nil
		}
	}
	minimalK := func(size int) call {
		return func(s *rrr.Solver) ([]*rrr.Result, error) {
			k, res, err := s.MinimalKForSize(ctx, d2, size)
			if err == nil && res.K != k {
				err = fmt.Errorf("achieved k %d, result solved at k=%d", k, res.K)
			}
			return []*rrr.Result{res}, err
		}
	}
	for _, tc := range []struct {
		name string
		opts []rrr.Option
	}{
		{"auto", []rrr.Option{rrr.WithSeed(5)}},
		{"mdrrr", []rrr.Option{rrr.WithSeed(5), rrr.WithAlgorithm(rrr.AlgoMDRRR), rrr.WithSamplerTermination(40)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := []call{
				solveInto(5), solveInto(9),
				solve(6), solve(10),
				batch(rrr.Request{K: 4}, rrr.Request{K: 12}, rrr.Request{Size: 3}),
				batch(rrr.Request{K: 7}, rrr.Request{K: 15}, rrr.Request{Size: 5}),
				minimalK(3), minimalK(6),
			}
			want := make([][]*rrr.Result, len(calls))
			for i, c := range calls {
				if want[i], err = c(rrr.New(tc.opts...)); err != nil {
					t.Fatalf("call %d, sequential: %v", i, err)
				}
			}
			shared := rrr.New(tc.opts...)
			const rounds = 3
			errs := make([]error, len(calls))
			got := make([][][]*rrr.Result, len(calls))
			var wg sync.WaitGroup
			for i, c := range calls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds && errs[i] == nil; r++ {
						var res []*rrr.Result
						res, errs[i] = c(shared)
						got[i] = append(got[i], res)
					}
				}()
			}
			wg.Wait()
			for i := range calls {
				if errs[i] != nil {
					t.Fatalf("call %d, concurrent: %v", i, errs[i])
				}
				for r, res := range got[i] {
					if len(res) != len(want[i]) {
						t.Fatalf("call %d round %d: %d results, want %d", i, r, len(res), len(want[i]))
					}
					for j := range res {
						sameResult(t, fmt.Sprintf("call %d round %d result %d", i, r, j), res[j], want[i][j])
					}
				}
			}
		})
	}
}

// TestSolverValidation: bad inputs fail fast with plain errors, not typed
// solve errors.
func TestSolverValidation(t *testing.T) {
	d, err := rrr.Independent(20, 3, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s := rrr.New()
	if _, err := s.Solve(context.Background(), nil, 5); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := s.Solve(context.Background(), d, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, _, err := s.MinimalKForSize(context.Background(), d, 0); err == nil {
		t.Fatal("size = 0 accepted")
	}
	if _, _, err := s.MinimalKForSize(context.Background(), nil, 3); err == nil {
		t.Fatal("nil dataset accepted by dual solver")
	}
}

// TestSolverInfeasibleAlgorithm: an algorithm/dimensionality mismatch is a
// typed infeasibility, so transports can 422 it without string matching.
func TestSolverInfeasibleAlgorithm(t *testing.T) {
	d3, err := rrr.Independent(20, 3, 1).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, err = rrr.New(rrr.WithAlgorithm(rrr.Algo2DRRR)).Solve(context.Background(), d3, 2)
	if !errors.Is(err, rrr.ErrInfeasible) {
		t.Fatalf("2drrr on 3-D data: want ErrInfeasible, got %v", err)
	}
	var solveErr *rrr.Error
	if !errors.As(err, &solveErr) || solveErr.KindName() != "infeasible" {
		t.Fatalf("want kind infeasible, got %v", err)
	}
}

// TestParseAlgorithmZeroOnError is the satellite regression: the error
// path must return the zero Algorithm, not AlgoAuto, which is a valid
// (and dangerous, for a caller ignoring the error) choice.
func TestParseAlgorithmZeroOnError(t *testing.T) {
	got, err := rrr.ParseAlgorithm("quantum")
	if err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if got != Algorithm("") {
		t.Fatalf("error path returned %q, want the zero Algorithm", got)
	}
	if got == rrr.AlgoAuto {
		t.Fatal("error path returned AlgoAuto, a valid value")
	}
	for name, want := range map[string]rrr.Algorithm{
		"":      rrr.AlgoAuto,
		"auto":  rrr.AlgoAuto,
		"AUTO":  rrr.AlgoAuto,
		"2drrr": rrr.Algo2DRRR,
		"MDRRR": rrr.AlgoMDRRR,
		"mdrc":  rrr.AlgoMDRC,
	} {
		got, err := rrr.ParseAlgorithm(name)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = (%q, %v), want %q", name, got, err, want)
		}
	}
}

// Algorithm aliases rrr.Algorithm for zero-value comparisons.
type Algorithm = rrr.Algorithm

// TestAlgorithmString: the zero value and AlgoAuto both print "auto";
// nothing prints blank.
func TestAlgorithmString(t *testing.T) {
	if got := Algorithm("").String(); got != "auto" {
		t.Fatalf("zero Algorithm prints %q, want auto", got)
	}
	if got := rrr.AlgoAuto.String(); got != "auto" {
		t.Fatalf("AlgoAuto prints %q, want auto", got)
	}
	if got := fmt.Sprintf("%s", Algorithm("")); got != "auto" {
		t.Fatalf("%%s of zero Algorithm = %q, want auto", got)
	}
	if got := rrr.AlgoMDRC.String(); got != "mdrc" {
		t.Fatalf("AlgoMDRC prints %q", got)
	}
}

// TestAlgorithmResolveZero: the zero Algorithm dispatches like AlgoAuto,
// preserving the meaning of zero-valued legacy Options.
func TestAlgorithmResolveZero(t *testing.T) {
	if got := Algorithm("").Resolve(2); got != rrr.Algo2DRRR {
		t.Fatalf("zero.Resolve(2) = %q", got)
	}
	if got := Algorithm("").Resolve(5); got != rrr.AlgoMDRC {
		t.Fatalf("zero.Resolve(5) = %q", got)
	}
	if got := rrr.AlgoAuto.Resolve(2); got != rrr.Algo2DRRR {
		t.Fatalf("AlgoAuto.Resolve(2) = %q", got)
	}
	if got := rrr.AlgoMDRRR.Resolve(2); got != rrr.AlgoMDRRR {
		t.Fatalf("explicit choice did not pass through Resolve: %q", got)
	}
}
