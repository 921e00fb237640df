package sweep_test

// The acceptance tests of the top-k level of the 2-D dual-line
// arrangement (the paper's Section 3 and Figure 3): its k-sets and its
// border, as KSets and KBorder read them off the event loop, checked
// against the paper's Figure 1 example, against the one-pass Sweep,
// against direct top-k queries and against the dual-line geometry. The
// arrangement itself is never built.

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rrr/internal/geom"
	"rrr/internal/paperfig"
	"rrr/internal/sweep"
	"rrr/internal/topk"
)

func sortedSets(sets [][]int) [][]int {
	out := make([][]int, len(sets))
	for i, s := range sets {
		out[i] = append([]int(nil), s...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for x := 0; x < len(a) && x < len(b); x++ {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// checkTiling fails unless the facets tile [0, π/2] exactly, each with
// positive width.
func checkTiling(t *testing.T, border []sweep.Facet) {
	t.Helper()
	cur := 0.0
	for _, b := range border {
		if b.From != cur || b.To <= b.From {
			t.Fatalf("facets do not tile [0, π/2] at %v: %v", cur, border)
		}
		cur = b.To
	}
	if cur != geom.HalfPi {
		t.Fatalf("border stops at %v: %v", cur, border)
	}
}

// facetAt returns the facet whose interval holds theta.
func facetAt(t *testing.T, border []sweep.Facet, theta float64) sweep.Facet {
	t.Helper()
	for _, b := range border {
		if b.From <= theta && theta < b.To {
			return b
		}
	}
	t.Fatalf("no border facet at %v: %v", theta, border)
	return sweep.Facet{}
}

func TestBuildPaperFigure3(t *testing.T) {
	d := paperfig.Figure1()
	// Figure 6: three 2-sets, visited as {1,7}, {3,7}, {3,5}.
	sets, err := sweep.KSets(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedSets(sets), sortedSets(paperfig.TwoSets); !reflect.DeepEqual(got, want) {
		t.Fatalf("KSets = %v, want %v", got, want)
	}
	// The k-border starts on t1's dual line (t1 is rank 2 at θ=0, per the
	// x1 ordering t7, t1, ...) and ends on t3's (rank 2 at θ=π/2 behind
	// t5).
	borders, err := sweep.KBorder(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if borders[0].ID != 1 {
		t.Fatalf("border starts on t%d, want t1", borders[0].ID)
	}
	if borders[len(borders)-1].ID != 3 {
		t.Fatalf("border ends on t%d, want t3", borders[len(borders)-1].ID)
	}
	checkTiling(t, borders)
}

// TestCellsPartitionAndMatchDirectTopK: the top-k set is constant on every
// facet of the k-border, so the facets partition [0, π/2] into cells. At
// each facet's midpoint the direct top-k ranks the facet's tuple k-th, and
// the direct top-k sets, in sweep order, are KSets' collection.
func TestCellsPartitionAndMatchDirectTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		d := randomDataset2D(rng, 5+rng.Intn(25), false)
		k := 1 + rng.Intn(4)
		border, err := sweep.KBorder(d, k)
		if err != nil {
			t.Fatal(err)
		}
		checkTiling(t, border)
		var cells [][]int
		for _, c := range border {
			f := geom.FuncFromAngle2D((c.From + c.To) / 2)
			if top := topk.TopK(d, f, k); top[k-1] != c.ID {
				t.Fatalf("trial %d: facet [%v,%v] claims t%d, direct top-k says t%d", trial, c.From, c.To, c.ID, top[k-1])
			}
			set := topk.TopKSet(d, f, k)
			if n := len(cells); n == 0 || !slices.Equal(cells[n-1], set) {
				cells = append(cells, set)
			}
		}
		sets, err := sweep.KSets(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cells, sets) {
			t.Fatalf("trial %d: cell top-k sets %v, KSets %v", trial, cells, sets)
		}
	}
}

// TestKSetsMatchSweep: KSets, on the k-skyband's sector-bisected loop,
// equals the k-sets read off a replay of the one-pass Sweep over every
// tuple (two independent exact enumerations), first-seen order included.
func TestKSetsMatchSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		d := randomDataset2D(rng, 6+rng.Intn(30), false)
		k := 1 + rng.Intn(4)
		order, err := sweep.InitialOrder(d)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]int
		record := func() {
			set := slices.Sorted(slices.Values(order[:k]))
			for _, s := range want {
				if slices.Equal(s, set) {
					return
				}
			}
			want = append(want, set)
		}
		record()
		if _, err := sweep.Sweep(d, func(e sweep.Event) bool {
			if order[e.Pos] != e.Above || order[e.Pos+1] != e.Below {
				t.Fatalf("trial %d: event %+v does not match the order %v", trial, e, order)
			}
			order[e.Pos], order[e.Pos+1] = e.Below, e.Above
			if e.Pos == k-1 {
				record()
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		got, err := sweep.KSets(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: band loop %v vs sweep %v", trial, got, want)
		}
	}
}

// TestBorderPointLiesOnDualLine: the ray at each probe angle meets the
// dual line of the border tuple k-th, counting outward from the origin:
// the border is the arrangement's k-th level, and its tuple is the k-th
// ranked one.
func TestBorderPointLiesOnDualLine(t *testing.T) {
	d := paperfig.Figure1()
	const k = 2
	border, err := sweep.KBorder(d, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0.1, 0.5, 1.0, 1.5} {
		seg := facetAt(t, border, theta)
		f := geom.FuncFromAngle2D(theta)
		if got := topk.TopK(d, f, k); got[len(got)-1] != seg.ID {
			t.Fatalf("border at %v claims t%d, direct top-k says t%d", theta, seg.ID, got[len(got)-1])
		}
		w := []float64{math.Cos(theta), math.Sin(theta)}
		var dists []float64
		for _, tup := range d.Tuples() {
			if dist, hit := geom.DualRayIntersection(tup, w); hit {
				dists = append(dists, dist)
			}
		}
		slices.Sort(dists)
		tup, _ := d.ByID(seg.ID)
		dist, hit := geom.DualRayIntersection(tup, w)
		if !hit || dist != dists[k-1] {
			t.Fatalf("ray at %v meets d(t%d) at %v, the k-th dual line at %v", theta, seg.ID, dist, dists[k-1])
		}
		// The point must satisfy the dual line equation t[0]x + t[1]y = 1.
		x, y := dist*w[0], dist*w[1]
		if v := tup.Attrs[0]*x + tup.Attrs[1]*y; v < 1-1e-9 || v > 1+1e-9 {
			t.Fatalf("border point (%v,%v) not on d(t%d): %v", x, y, seg.ID, v)
		}
	}
}

// TestBorderFacetCountsCanRepeatTuples reproduces the paper's remark that
// one dual line may carry multiple facets of the border (d(t3) in Figure
// 3 carries two segments of the top-2 border).
func TestBorderFacetCountsCanRepeatTuples(t *testing.T) {
	d := paperfig.Figure1()
	border, err := sweep.KBorder(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, b := range border {
		count[b.ID]++
	}
	if count[3] < 2 {
		t.Fatalf("d(t3) should carry at least two border facets, got %d (border %v)", count[3], border)
	}
}
