package rrr_test

import (
	"context"
	"slices"
	"testing"

	"rrr"
	"rrr/internal/algo"
)

// FuzzTwoDRRR holds every 2-D entry point to one answer on tie-heavy
// inputs: up to 12 points on a 6×6 grid (two bytes per point, the
// encoding and seeds of the sweep package's FuzzFindRanges) and a k in
// [1, n]. Under both cover strategies, Solve, SolveInto into a recycled
// Result, the k item of a two-item SolveBatch and algo.TwoDRRR must
// return identical IDs, and so must Profile2D under the optimal cover.
//
// The 2k rank-regret bound is deliberately not asserted: with exact
// duplicate points the library's float scoring can rank tuples that tie
// in exact arithmetic apart, and the answer's measured rank-regret then
// exceeds 2k on some of these inputs.
func FuzzTwoDRRR(f *testing.F) {
	f.Add([]byte{0, 5, 1, 4, 2, 3, 3, 2, 4, 1, 5, 0}, uint8(2))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 1, 1, 5, 5}, uint8(1))
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 2, 4, 4, 2}, uint8(3))
	f.Add([]byte{5, 1, 4, 2, 4, 2, 1, 5, 2, 2, 0, 0, 3, 1, 1, 3, 5, 5, 0, 3, 3, 0, 2, 5}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, kb uint8) {
		n := min(len(raw)/2, 12)
		if n == 0 {
			return
		}
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{float64(raw[2*i]%6) / 5, float64(raw[2*i+1]%6) / 5}
		}
		d, err := rrr.NewDataset(points)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + int(kb)%n
		other := k%n + 1 // the batch's and the profile's second k
		ctx := context.Background()
		var recycled rrr.Result
		for _, optimal := range []bool{false, true} {
			s := rrr.New(rrr.WithAlgorithm(rrr.Algo2DRRR), rrr.WithOptimalCover(optimal))
			want, err := s.Solve(ctx, d, k)
			if err != nil {
				t.Fatal(err)
			}
			check := func(path string, ids []int) {
				t.Helper()
				if !slices.Equal(ids, want.IDs) {
					t.Fatalf("optimal=%v k=%d points %v: %s = %v, Solve = %v", optimal, k, points, path, ids, want.IDs)
				}
			}
			if err := s.SolveInto(ctx, d, other, &recycled); err != nil {
				t.Fatal(err)
			}
			if err := s.SolveInto(ctx, d, k, &recycled); err != nil {
				t.Fatal(err)
			}
			check("SolveInto", recycled.IDs)

			br, err := s.SolveBatch(ctx, d, []rrr.Request{{K: other}, {K: k}})
			if err != nil {
				t.Fatal(err)
			}
			if it := br.Items[1]; it.Err != nil {
				t.Fatal(it.Err)
			}
			check("SolveBatch", br.Items[1].Result.IDs)

			strategy := algo.CoverMaxGain
			if optimal {
				strategy = algo.CoverOptimalSweep
			}
			ar, err := algo.TwoDRRR(ctx, d, k, algo.TwoDOptions{Cover: strategy})
			if err != nil {
				t.Fatal(err)
			}
			check("algo.TwoDRRR", ar.IDs)

			if optimal {
				profile, err := rrr.Profile2D(d, []int{other, k})
				if err != nil {
					t.Fatal(err)
				}
				check("Profile2D", profile[1].IDs)
			}
		}
	})
}
