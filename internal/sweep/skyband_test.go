package sweep

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rrr/internal/core"
	"rrr/internal/dataset"
	"rrr/internal/geom"
)

// kLevel is what the unfiltered Sweep replay yields at one rank target
// k: Algorithm 1's ranges, the k-set collection in first-seen order, and
// the top-k border.
type kLevel struct {
	ranges map[int]Range
	sets   [][]int
	border []Facet
}

// referenceKLevel replays the exported, unfiltered Sweep event stream
// for every k in ks, keeping the whole order:
//
//   - ranges: the initial top-k is in range from θ = 0, and each exchange
//     at position k−1 moves one tuple out of the top-k and one in;
//   - sets: the initial top-k, then the top-k after each exchange at
//     position k−1, each kept the first time it is seen;
//   - border: after each exchange at position k−2 or k−1 the tuple at
//     position k−1 is the border's, from the largest such key seen so far.
//     The last tuple at one angle wins, neighbouring runs of one tuple
//     merge, and a change at π/2 itself is dropped.
//
// It is the oracle for the band-loop kernels, which must agree with it bit
// for bit. The stream it replays must itself equal bruteEvents', so the
// loop's event order is pinned too.
func referenceKLevel(t testing.TB, d *core.Dataset, ks []int) []kLevel {
	t.Helper()
	order, err := InitialOrder(d)
	if err != nil {
		t.Fatal(err)
	}
	var stream []Event
	type change struct {
		at float64
		id int
	}
	out := make([]kLevel, len(ks))
	seen := make([]map[string]bool, len(ks))
	changes := make([][]change, len(ks))
	addSet := func(i, k int) {
		set := slices.Sorted(slices.Values(order[:k]))
		if key := fmt.Sprint(set); !seen[i][key] {
			seen[i][key] = true
			out[i].sets = append(out[i].sets, set)
		}
	}
	for i, k := range ks {
		out[i].ranges = make(map[int]Range)
		for _, id := range order[:k] {
			out[i].ranges[id] = Range{ID: id}
		}
		seen[i] = make(map[string]bool)
		addSet(i, k)
		changes[i] = []change{{0, order[k-1]}}
	}
	_, err = Sweep(d, func(e Event) bool {
		stream = append(stream, e)
		order[e.Pos], order[e.Pos+1] = e.Below, e.Above
		for i, k := range ks {
			if e.Pos == k-1 {
				r := out[i].ranges[e.Above]
				r.Hi = e.Theta
				out[i].ranges[e.Above] = r
				if _, ok := out[i].ranges[e.Below]; !ok {
					out[i].ranges[e.Below] = Range{ID: e.Below, Lo: e.Theta}
				}
				addSet(i, k)
			}
			if e.Pos == k-1 || e.Pos == k-2 {
				last := &changes[i][len(changes[i])-1]
				if at := max(last.at, e.Theta); at == last.at {
					last.id = order[k-1]
				} else {
					changes[i] = append(changes[i], change{at, order[k-1]})
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteEvents(t, d); !slices.Equal(stream, want) {
		t.Fatalf("n=%d: Sweep's events\n got  %v\n want %v\n points %v", d.N(), stream, want, d.Tuples())
	}
	for i, k := range ks {
		// The top-k at the end of the sweep stays in range to π/2.
		for _, id := range order[:k] {
			r := out[i].ranges[id]
			r.Hi = geom.HalfPi
			out[i].ranges[id] = r
		}
		var border []Facet
		for j, c := range changes[i] {
			if j > 0 && c.at == geom.HalfPi {
				break
			}
			if n := len(border); n > 0 && border[n-1].ID == c.id {
				continue
			}
			if n := len(border); n > 0 {
				border[n-1].To = c.at
			}
			border = append(border, Facet{ID: c.id, From: c.at})
		}
		border[len(border)-1].To = geom.HalfPi
		out[i].border = border
	}
	return out
}

// bruteEvents replays the loop's exchange rule by brute force: from the
// initial order, it scans every adjacent pair, takes the earliest
// (key, upper tuple's local index) among the pairs that crossing says
// cross ahead, swaps it, and repeats until no pair does. It shares
// crossing and the initial order with the event loop, and nothing of its
// queue. Each pair's key is kept until a swap changes the pair.
func bruteEvents(t testing.TB, d *core.Dataset) []Event {
	t.Helper()
	var sc Scratch
	if err := sc.initOrder(d); err != nil {
		t.Fatal(err)
	}
	ts, order := d.Tuples(), sc.order
	keys := make([]float64, max(len(order)-1, 0)) // +Inf: the pair never crosses ahead
	rekey := func(p int) {
		if p < 0 || p >= len(keys) {
			return
		}
		keys[p] = math.Inf(1)
		if theta, ok := crossing(ts[order[p]], ts[order[p+1]]); ok {
			keys[p] = theta
		}
	}
	for p := range keys {
		rekey(p)
	}
	var events []Event
	for {
		at := -1
		for p, key := range keys {
			if !math.IsInf(key, 1) && (at < 0 || key < keys[at] || key == keys[at] && order[p] < order[at]) {
				at = p
			}
		}
		if at < 0 {
			return events
		}
		above, below := order[at], order[at+1]
		events = append(events, Event{Theta: keys[at], Pos: at, Above: ts[above].ID, Below: ts[below].ID})
		order[at], order[at+1] = below, above
		rekey(at - 1)
		rekey(at)
		rekey(at + 1)
	}
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

// checkSkyband holds the band-loop kernels to the unfiltered oracle on
// one dataset and every k in ks, after the oracle's Sweep stream has
// matched the brute-force event order: FindRangesScratch (on the shared,
// warm sc) and FindRanges must equal referenceKLevel's ranges, one
// FindRangesMulti call must return FindRangesScratch's slices exactly,
// order included, KSets and KBorder must equal its k-sets and border, and
// the skyband pass must keep exactly the tuples with fewer than k strict
// dominators, in initial order. It reports whether any k pruned a tuple.
func checkSkyband(t testing.TB, d *core.Dataset, ks []int, sc *Scratch) (pruned bool) {
	t.Helper()
	ctx := context.Background()
	want := referenceKLevel(t, d, ks)
	multi, err := FindRangesMulti(ctx, d, ks, nil)
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
		if !reflect.DeepEqual(got, want[i].ranges) {
			t.Fatalf("n=%d k=%d: FindRangesScratch\n got  %v\n want %v\n points %v", d.N(), k, got, want[i].ranges, d.Tuples())
		}
		if !slices.Equal(multi[i], rs) {
			t.Fatalf("n=%d ks=%v k=%d: FindRangesMulti\n got  %v\n want %v\n points %v", d.N(), ks, k, multi[i], rs, d.Tuples())
		}
		single, err := FindRanges(ctx, d, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, want[i].ranges) {
			t.Fatalf("n=%d k=%d: FindRanges\n got  %v\n want %v", d.N(), k, single, want[i].ranges)
		}
		sets, err := KSets(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sets, want[i].sets) {
			t.Fatalf("n=%d k=%d: KSets\n got  %v\n want %v\n points %v", d.N(), k, sets, want[i].sets, d.Tuples())
		}
		border, err := KBorder(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(border, want[i].border) {
			t.Fatalf("n=%d k=%d: KBorder\n got  %v\n want %v\n points %v", d.N(), k, border, want[i].border, d.Tuples())
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
// repeated exactly, points on the line x1 + x2 = 1 (every pair crosses
// at θ = π/4) mixed with off-line points, or (family 3) near-duplicates:
// a few points each moved by up to three ulps per coordinate, whose
// scores differ only by rounding at most angles.
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
	case 3: // near-duplicates of a few distinct points
		base := make([][]float64, 1+rng.Intn(3))
		for i := range base {
			base[i] = []float64{rng.Float64(), rng.Float64()}
		}
		for i := range points {
			p := slices.Clone(base[rng.Intn(len(base))])
			for j := range p {
				for s := rng.Intn(4); s > 0; s-- {
					p[j] = math.Nextafter(p[j], float64(2*rng.Intn(2)-1)*2)
				}
			}
			points[i] = p
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
// n ≤ 15 and every k in [1, n], the unfiltered sweep's events follow the
// brute-force replay, pruning to the k-skyband changes no range, k-set or
// border facet, and the pass drops exactly the tuples with k strict
// dominators.
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

// FuzzFindRanges runs the skyband equivalence oracle (the event order,
// ranges, k-sets and the k-border) on fuzzer-chosen inputs: up to 12
// points on a 6×6 grid (two bytes per point) and a k in [1, n].
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

// TestSectorsMatchUnfilteredSweepDegenerate holds the sector path to the
// unfiltered oracle on the four degenerate families (checkSkyband's
// checks, every k ≤ n ≤ 15), and counts the cases whose sweep split into sectors
// and the split angles the check refused. Either count at zero means the
// equivalence exercised nothing of the bisection or of its check.
func TestSectorsMatchUnfilteredSweepDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	var sc Scratch
	cases, splitCases, refused := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(15)
		d := degenerateDataset(rng, trial%4, n)
		for k := 1; k <= n; k++ {
			cases++
			checkSkyband(t, d, []int{k}, &sc)
			if sc.sectors.leaves > 1 {
				splitCases++
			}
			refused += sc.sectors.refused
		}
	}
	if splitCases == 0 || refused == 0 {
		t.Fatalf("%d cases split, %d split angles refused: the sector check exercised nothing", splitCases, refused)
	}
	t.Logf("%d cases, %d (%.0f%%) split into sectors, %d split angles refused", cases, splitCases, 100*float64(splitCases)/float64(cases), refused)
}

// TestSectorSplitRefusedAtConcurrentCrossing: every pair of points on
// x1 + x2 = 1 crosses at π/4, the first split point. The check must refuse
// it, and the sweep, split at other points, must still equal the
// unfiltered one.
func TestSectorSplitRefusedAtConcurrentCrossing(t *testing.T) {
	const n = 12
	points := make([][]float64, n)
	for i := range points {
		a := float64(i) / (n - 1)
		points[i] = []float64{a, 1 - a}
	}
	d := core.MustNewDataset(points)
	var sc Scratch
	if err := sc.initBand(d, 2); err != nil {
		t.Fatal(err)
	}
	if m := geom.HalfPi / 2; sc.sortCertified(d.Tuples(), sc.order, m, directionAt(m), make([]int, n)) {
		t.Fatal("the split at π/4, where every pair crosses, passed the check")
	}
	for _, k := range []int{1, 2, 3} {
		checkSkyband(t, d, []int{k}, &sc)
		if sc.sectors.refused == 0 || sc.sectors.leaves < 2 {
			t.Fatalf("k=%d: %d leaves, %d refused; want the π/4 split refused and another taken", k, sc.sectors.leaves, sc.sectors.refused)
		}
	}
}

// TestFindRangesScratchAllocFree: a warm FindRangesScratch allocates
// nothing when its sweep splits into sectors, on the benchmark's cold 2-D
// data (DOT-like, n = 1000) at k = 100 and on the input of the root
// package's TestSolveIntoAllocFree2D (independent, n = 2000, seed 7,
// k = 10).
func TestFindRangesScratchAllocFree(t *testing.T) {
	dot, err := dataset.DOTLike(1000, 1).FirstDims(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tab  *dataset.Table
		k    int
	}{
		{"dot", dot, 100},
		{"independent", dataset.Independent(2000, 2, 7), 10},
	} {
		d, err := c.tab.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var sc Scratch
		if _, err := FindRangesScratch(ctx, d, c.k, &sc); err != nil {
			t.Fatal(err)
		}
		if sc.sectors.leaves < 2 {
			t.Fatalf("%s k=%d: the sweep did not split", c.name, c.k)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := FindRangesScratch(ctx, d, c.k, &sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s k=%d: warm FindRangesScratch allocates %.1f times per run over %d sectors, want 0", c.name, c.k, allocs, sc.sectors.leaves)
		}
	}
}

// FuzzFindRangesMulti runs the oracle, event order included, on one
// FindRangesMulti call over two or three k values, and on KSets and
// KBorder at each: up to 12 points on a 6×6 grid (two bytes per point),
// and each k in [1, n]; a zero third byte leaves it out.
func FuzzFindRangesMulti(f *testing.F) {
	f.Add([]byte{0, 5, 1, 4, 2, 3, 3, 2, 4, 1, 5, 0}, uint8(1), uint8(3), uint8(0))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 1, 1, 5, 5}, uint8(0), uint8(2), uint8(4))
	f.Add([]byte{5, 1, 4, 2, 4, 2, 1, 5, 2, 2, 0, 0, 3, 1, 1, 3, 5, 5, 0, 3, 3, 0, 2, 5}, uint8(1), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, k1, k2, k3 uint8) {
		n := min(len(raw)/2, 12)
		if n == 0 {
			return
		}
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{float64(raw[2*i]%6) / 5, float64(raw[2*i+1]%6) / 5}
		}
		ks := []int{1 + int(k1)%n, 1 + int(k2)%n}
		if k3 != 0 {
			ks = append(ks, 1+int(k3-1)%n)
		}
		checkSkyband(t, core.MustNewDataset(points), ks, new(Scratch))
	})
}
