package delta_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"rrr/internal/core"
	"rrr/internal/dataset"
	"rrr/internal/delta"
	"rrr/internal/shard"
)

// TestPoolsFromIndexMatchDominanceScan runs seeded random append/delete
// sequences on DOT- and BN-like data at d = 3 and 4, with duplicate rows
// and rescaling appends, and checks after every batch that the d-D pool
// BuildPool reads from the new snapshot's dominator counts equals the
// dominance scan on a one-shard plan, at k ∈ {1, 2, 5, 20, 50, n}.
func TestPoolsFromIndexMatchDominanceScan(t *testing.T) {
	ctx := context.Background()
	check := func(name string, d *core.Dataset) {
		t.Helper()
		pl, err := shard.NewPlan(d, 1, shard.Contiguous)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 5, 20, 50, d.N()} {
			want, _, err := shard.Candidates(ctx, pl, k, shard.Dominance, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pool, err := delta.BuildPool(ctx, d, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pool.IDs, want) {
				t.Fatalf("%s k=%d: pool of %d IDs, dominance scan %d", name, k, pool.Len(), len(want))
			}
		}
	}
	for _, kind := range []string{"dot", "bn"} {
		for _, dims := range []int{3, 4} {
			tb, err := dataset.ByKind(kind, 250, dims, 5)
			if err != nil {
				t.Fatal(err)
			}
			l := mustLog(t, tb)
			_, first, _ := l.Snapshot()
			check(kind+" initial", first)
			rng := rand.New(rand.NewSource(int64(10*dims + len(kind))))
			gen := int64(1)
			rescales := 0
			for batch := 0; batch < 40; batch++ {
				cur, _, _ := l.Snapshot()
				row := func() []float64 { return append([]float64(nil), cur.Rows[rng.Intn(cur.N())]...) }
				var b delta.Batch
				switch rng.Intn(4) {
				case 0:
					// Duplicate rows: exact copies of live ones.
					b.Append = [][]float64{row(), row()}
					b.Append = append(b.Append, b.Append[0])
				case 1:
					// One attribute past the current bounds rescales.
					_, maxs, err := cur.Bounds()
					if err != nil {
						t.Fatal(err)
					}
					r := row()
					j := rng.Intn(dims)
					r[j] = maxs[j] + 1
					b.Append = [][]float64{r}
				case 2:
					// Midpoints of two live rows stay inside the bounds.
					a, c := row(), row()
					for j := range a {
						a[j] = (a[j] + c[j]) / 2
					}
					b.Append = [][]float64{a}
				default:
					for i := 0; i < 1+rng.Intn(3); i++ {
						id := cur.ID(rng.Intn(cur.N()))
						dup := false
						for _, x := range b.Delete {
							dup = dup || x == id
						}
						if !dup {
							b.Delete = append(b.Delete, id)
						}
					}
				}
				ch, err := l.Apply(b, func() int64 { gen++; return gen }, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ch.Rescaled {
					rescales++
				}
				check(kind, ch.After)
			}
			if rescales == 0 {
				t.Fatalf("%s d=%d: no batch rescaled", kind, dims)
			}
		}
	}
}
