package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestRankRule checks the rule the dominator index rests on, on the ranks
// countDominators computes: u AlwaysOutranks t exactly when u's rank is
// higher than t's on every attribute. The sets have 2–31 tuples, values
// on the grid {−½, ±0, ½, 1} and permuted IDs, so most attributes tie.
func TestRankRule(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	grid := []float64{0, math.Copysign(0, -1), 0.5, 1, -0.5}
	for trial := 0; trial < 300; trial++ {
		n, dims := 2+rng.Intn(30), 1+rng.Intn(5)
		ts := make([]Tuple, n)
		perm := rng.Perm(2 * n)
		for i := range ts {
			attrs := make([]float64, dims)
			for j := range attrs {
				attrs[j] = grid[rng.Intn(len(grid))]
			}
			ts[i] = Tuple{ID: perm[i], Attrs: attrs}
		}
		rank := make([]int32, dims*n)
		byID := make([]int32, n)
		for i := range byID {
			byID[i] = int32(i)
		}
		sort.Slice(byID, func(a, b int) bool { return ts[byID[a]].ID > ts[byID[b]].ID })
		idx, idx2 := make([]int32, n), make([]int32, n)
		keys, keys2 := make([]uint64, n), make([]uint64, n)
		for j := 0; j < dims; j++ {
			rankAttribute(ts, j, byID, rank[j*n:(j+1)*n], idx, idx2, keys, keys2)
		}
		for a := range ts {
			for b := range ts {
				if a == b {
					continue
				}
				higher := true
				for j := 0; j < dims; j++ {
					if rank[j*n+a] <= rank[j*n+b] {
						higher = false
					}
				}
				if want := AlwaysOutranks(ts[a], ts[b]); higher != want {
					t.Fatalf("trial %d: %v vs %v: ranks higher everywhere = %v, AlwaysOutranks = %v",
						trial, ts[a], ts[b], higher, want)
				}
			}
		}
	}
}
