package sweep

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rrr/internal/core"
	"rrr/internal/dataset"
	"rrr/internal/geom"
)

// referenceRanges recomputes Algorithm 1's ranges for every k in ks from
// the exported, unfiltered Sweep event stream: the initial top-k is in
// range from θ = 0, and each exchange at position k−1 moves one tuple out
// of the top-k and one in. It is the oracle for the skyband-pruned
// kernels, which must agree with it bit for bit.
func referenceRanges(t testing.TB, d *core.Dataset, ks []int) []map[int]Range {
	t.Helper()
	order, err := InitialOrder(d)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]map[int]Range, len(ks))
	inTop := make([]map[int]bool, len(ks))
	for i, k := range ks {
		out[i] = make(map[int]Range)
		inTop[i] = make(map[int]bool)
		for _, id := range order[:k] {
			out[i][id] = Range{ID: id}
			inTop[i][id] = true
		}
	}
	_, err = Sweep(d, func(e Event) bool {
		for i, k := range ks {
			if e.Pos != k-1 {
				continue
			}
			r := out[i][e.Above]
			r.Hi = e.Theta
			out[i][e.Above] = r
			inTop[i][e.Above] = false
			if _, seen := out[i][e.Below]; !seen {
				out[i][e.Below] = Range{ID: e.Below, Lo: e.Theta}
			}
			inTop[i][e.Below] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ks {
		for id, in := range inTop[i] {
			if in {
				r := out[i][id]
				r.Hi = geom.HalfPi
				out[i][id] = r
			}
		}
	}
	return out
}

// strictDominators counts, for every local index, the tuples greater on
// both attributes — by brute force.
func strictDominators(d *core.Dataset) []int {
	ts := d.Tuples()
	dom := make([]int, len(ts))
	for i, a := range ts {
		for _, b := range ts {
			if b.Attrs[0] > a.Attrs[0] && b.Attrs[1] > a.Attrs[1] {
				dom[i]++
			}
		}
	}
	return dom
}

// checkSkyband holds the pruned kernels to the unfiltered oracle on one
// dataset and every k in ks: FindRangesScratch (on the shared, warm sc)
// and FindRanges must equal referenceRanges, one FindRangesMulti call
// must return FindRangesScratch's slices exactly, order included, and the
// skyband pass must keep exactly the tuples with fewer than k strict
// dominators, in initial order. It reports whether any k pruned a tuple.
func checkSkyband(t testing.TB, d *core.Dataset, ks []int, sc *Scratch) (pruned bool) {
	t.Helper()
	ctx := context.Background()
	want := referenceRanges(t, d, ks)
	multi, err := FindRangesMulti(ctx, d, ks)
	if err != nil {
		t.Fatal(err)
	}
	dom := strictDominators(d)
	var initial Scratch
	if err := initial.initOrder(d); err != nil {
		t.Fatal(err)
	}
	full := initial.order
	for i, k := range ks {
		rs, err := FindRangesScratch(ctx, d, k, sc)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int]Range, len(rs))
		for _, r := range rs {
			got[r.ID] = r
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("n=%d k=%d: FindRangesScratch\n got  %v\n want %v\n points %v", d.N(), k, got, want[i], d.Tuples())
		}
		if !slices.Equal(multi[i], rs) {
			t.Fatalf("n=%d ks=%v k=%d: FindRangesMulti\n got  %v\n want %v\n points %v", d.N(), ks, k, multi[i], rs, d.Tuples())
		}
		single, err := FindRanges(ctx, d, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, want[i]) {
			t.Fatalf("n=%d k=%d: FindRanges\n got  %v\n want %v", d.N(), k, single, want[i])
		}

		order := append([]int(nil), full...)
		kept, _ := skyband(d.Tuples(), order, k, nil)
		next := 0 // survivors must be a subsequence of the initial order
		for _, li := range full {
			survives := dom[li] < k
			if next < len(kept) && kept[next] == li {
				if !survives {
					t.Fatalf("n=%d k=%d: tuple %d with %d strict dominators survived", d.N(), k, li, dom[li])
				}
				next++
			} else if survives {
				t.Fatalf("n=%d k=%d: tuple %d with %d < k strict dominators dropped or reordered", d.N(), k, li, dom[li])
			}
		}
		if next != len(kept) {
			t.Fatalf("n=%d k=%d: survivors are not in initial order", d.N(), k)
		}
		pruned = pruned || len(kept) < d.N()
	}
	return pruned
}

// degenerateDataset draws one of the sweep's hard cases: grid-valued
// points (many shared coordinates and concurrent crossings), a few points
// repeated exactly, or points on the line x1 + x2 = 1 (every pair crosses
// at θ = π/4), mixed with off-line points.
func degenerateDataset(rng *rand.Rand, family, n int) *core.Dataset {
	points := make([][]float64, n)
	switch family {
	case 0: // grid
		g := 2 + rng.Intn(4)
		for i := range points {
			points[i] = []float64{float64(rng.Intn(g+1)) / float64(g), float64(rng.Intn(g+1)) / float64(g)}
		}
	case 1: // exact duplicates of a few distinct points
		distinct := 1 + rng.Intn(4)
		base := make([][]float64, distinct)
		for i := range base {
			base[i] = []float64{rng.Float64(), rng.Float64()}
		}
		for i := range points {
			points[i] = append([]float64(nil), base[rng.Intn(distinct)]...)
		}
	default: // on (and below) x1 + x2 = 1
		g := 3 + rng.Intn(6)
		for i := range points {
			a := float64(rng.Intn(g+1)) / float64(g)
			b := 1 - a
			if rng.Intn(3) == 0 {
				b = float64(rng.Intn(g+1)) / float64(g) * b
			}
			points[i] = []float64{a, b}
		}
	}
	return core.MustNewDataset(points)
}

// TestSkybandMatchesUnfilteredSweepDegenerate: on tie-heavy inputs with
// n ≤ 15 and every k in [1, n], pruning to the k-skyband changes no
// range, and the pass drops exactly the tuples with k strict dominators.
func TestSkybandMatchesUnfilteredSweepDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	var sc Scratch
	cases, prunedCases := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(15)
		d := degenerateDataset(rng, trial%3, n)
		for k := 1; k <= n; k++ {
			cases++
			if checkSkyband(t, d, []int{k}, &sc) {
				prunedCases++
			}
		}
		// One multi-k call over every k at once as well.
		ks := make([]int, n)
		for i := range ks {
			ks[i] = n - i
		}
		checkSkyband(t, d, ks, &sc)
	}
	if prunedCases == 0 {
		t.Fatal("no case pruned a tuple: the equivalence check exercised nothing")
	}
	t.Logf("%d cases, %d (%.0f%%) pruned at least one tuple", cases, prunedCases, 100*float64(prunedCases)/float64(cases))
}

// TestSkybandMatchesUnfilteredSweepGenerators: the same equivalence on
// the five generators' 2-D projections at n = 600.
func TestSkybandMatchesUnfilteredSweepGenerators(t *testing.T) {
	const n = 600
	tables := map[string]*dataset.Table{
		"dot":            dataset.DOTLike(n, 3),
		"bn":             dataset.BNLike(n, 3),
		"independent":    dataset.Independent(n, 2, 3),
		"correlated":     dataset.Correlated(n, 2, 3),
		"anticorrelated": dataset.AntiCorrelated(n, 2, 3),
	}
	ks := []int{1, 2, 3, 5, 10, 20, 50, 100, 200, 400, n - 1, n}
	var sc Scratch
	for name, tb := range tables {
		if tb.Dims() > 2 {
			var err error
			if tb, err = tb.FirstDims(2); err != nil {
				t.Fatal(err)
			}
		}
		d, err := tb.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if !checkSkyband(t, d, ks, &sc) {
			t.Errorf("%s: no k pruned a tuple", name)
		}
	}
}

// FuzzFindRanges runs the skyband equivalence oracle on fuzzer-chosen
// inputs: up to 12 points on a 6×6 grid (two bytes per point) and a k in
// [1, n].
func FuzzFindRanges(f *testing.F) {
	f.Add([]byte{0, 5, 1, 4, 2, 3, 3, 2, 4, 1, 5, 0}, uint8(2))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 1, 1, 5, 5}, uint8(1))
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 2, 4, 4, 2}, uint8(3))
	f.Add([]byte{5, 1, 4, 2, 4, 2, 1, 5, 2, 2, 0, 0, 3, 1, 1, 3, 5, 5, 0, 3, 3, 0, 2, 5}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, kb uint8) {
		n := len(raw) / 2
		if n > 12 {
			n = 12
		}
		if n == 0 {
			return
		}
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{float64(raw[2*i]%6) / 5, float64(raw[2*i+1]%6) / 5}
		}
		k := 1 + int(kb)%n
		checkSkyband(t, core.MustNewDataset(points), []int{k}, new(Scratch))
	})
}
