package sweep_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rrr/internal/core"
	"rrr/internal/geom"
	"rrr/internal/lp"
	"rrr/internal/paperfig"
	"rrr/internal/sweep"
	"rrr/internal/topk"
)

func randomDataset2D(rng *rand.Rand, n int, gridded bool) *core.Dataset {
	points := make([][]float64, n)
	for i := range points {
		if gridded {
			points[i] = []float64{float64(rng.Intn(8)) / 7, float64(rng.Intn(8)) / 7}
		} else {
			points[i] = []float64{rng.Float64(), rng.Float64()}
		}
	}
	return core.MustNewDataset(points)
}

func TestInitialOrderMatchesPaper(t *testing.T) {
	d := paperfig.Figure1()
	got, err := sweep.InitialOrder(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, paperfig.OrderingX1) {
		t.Fatalf("InitialOrder = %v, want %v", got, paperfig.OrderingX1)
	}
}

func TestInitialOrderRejectsNon2D(t *testing.T) {
	d := core.MustNewDataset([][]float64{{1, 2, 3}})
	if _, err := sweep.InitialOrder(d); err == nil {
		t.Fatal("expected dimension error")
	}
}

// replayOrderAt reconstructs the ordering at angle theta by replaying
// events up to (and including) it.
func replayOrderAt(t *testing.T, d *core.Dataset, theta float64) []int {
	t.Helper()
	order, err := sweep.InitialOrder(d)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int, len(order))
	for p, id := range order {
		pos[id] = p
	}
	_, err = sweep.Sweep(d, func(e sweep.Event) bool {
		if e.Theta > theta {
			return false
		}
		pa := pos[e.Above]
		order[pa], order[pa+1] = e.Below, e.Above
		pos[e.Above] = pa + 1
		pos[e.Below] = pa
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// TestSweepReproducesRankingsAtProbeAngles is the central correctness test:
// the event-replayed order must equal the directly computed ranking at
// angles strictly between events.
func TestSweepReproducesRankingsAtProbeAngles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		d := randomDataset2D(rng, 2+rng.Intn(40), trial%3 == 0)
		var angles []float64
		if _, err := sweep.Sweep(d, func(e sweep.Event) bool {
			angles = append(angles, e.Theta)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		// Probe only strictly inside intervals between events; slivers
		// narrower than 1e-9 are skipped because score comparisons there
		// are within floating-point noise of the crossing itself.
		var probes []float64
		prev := 0.0
		for _, a := range angles {
			if a > prev+1e-9 {
				probes = append(probes, (prev+a)/2)
			}
			prev = a
		}
		probes = append(probes, (prev+geom.HalfPi)/2)
		for _, p := range probes {
			want := topk.Ranking(d, geom.FuncFromAngle2D(p))
			got := replayOrderAt(t, d, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: order at θ=%v = %v, want %v", trial, p, got, want)
			}
		}
	}
}

// TestSweepEventsAreSortedAndBounded verifies event monotonicity and the
// O(n²) bound.
func TestSweepEventsAreSortedAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(50)
		d := randomDataset2D(rng, n, trial%2 == 0)
		prev := -1.0
		count, err := sweep.Sweep(d, func(e sweep.Event) bool {
			if e.Theta < prev-1e-12 {
				t.Fatalf("events out of order: %v after %v", e.Theta, prev)
			}
			prev = e.Theta
			if e.Theta <= 0 || e.Theta >= geom.HalfPi {
				t.Fatalf("event angle %v outside (0, π/2)", e.Theta)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count > n*(n-1)/2 {
			t.Fatalf("%d events exceed n(n-1)/2", count)
		}
	}
}

// TestSweepEventCountEqualsCrossingPairs: in general position, every
// non-dominated pair exchanges exactly once.
func TestSweepEventCountEqualsCrossingPairs(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		d := randomDataset2D(rng, n, false)
		want := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if _, ok := geom.CrossAngle2D(d.Tuple(i), d.Tuple(j)); ok {
					want++
				}
			}
		}
		got, err := sweep.Sweep(d, nil)
		return err == nil && got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFindRangesPaperFigure4(t *testing.T) {
	d := paperfig.Figure1()
	ranges, err := sweep.FindRanges(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: exactly t1, t3, t5, t7 have ranges.
	if len(ranges) != 4 {
		t.Fatalf("got %d ranges (%v), want 4", len(ranges), ranges)
	}
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	t1t3 := math.Atan2(0.80-0.67, 0.60-0.28) // t3 overtakes t1
	t7t5 := math.Atan2(0.91-0.46, 0.72-0.43) // t5 overtakes t7
	cases := []struct {
		id     int
		lo, hi float64
	}{
		{1, 0, t1t3},
		{3, t1t3, geom.HalfPi},
		{5, t7t5, geom.HalfPi},
		{7, 0, t7t5},
	}
	for _, c := range cases {
		r, ok := ranges[c.id]
		if !ok {
			t.Fatalf("t%d missing from ranges", c.id)
		}
		if !approx(r.Lo, c.lo) || !approx(r.Hi, c.hi) {
			t.Errorf("range of t%d = [%v, %v], want [%v, %v]", c.id, r.Lo, r.Hi, c.lo, c.hi)
		}
	}
}

// TestFindRangesTheorem1Bound: inside its range every tuple has rank ≤ 2k
// (Theorem 1 / Theorem 4's core argument), and the union of ranges covers
// the whole function space.
func TestFindRangesTheorem1Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(50)
		d := randomDataset2D(rng, n, false)
		k := 1 + rng.Intn(5)
		ranges, err := sweep.FindRanges(context.Background(), d, k)
		if err != nil {
			t.Fatal(err)
		}
		kk := k
		if kk > n {
			kk = n
		}
		for probe := 0; probe < 40; probe++ {
			theta := rng.Float64() * geom.HalfPi
			f := geom.FuncFromAngle2D(theta)
			covered := false
			for id, r := range ranges {
				if theta < r.Lo || theta > r.Hi {
					continue
				}
				covered = true
				rank, err := core.RankOfID(d, f, id)
				if err != nil {
					t.Fatal(err)
				}
				if rank > 2*kk {
					t.Fatalf("trial %d: t%d has rank %d > 2k=%d inside its range [%v,%v] at θ=%v",
						trial, id, rank, 2*kk, r.Lo, r.Hi, theta)
				}
			}
			if !covered {
				t.Fatalf("trial %d: θ=%v not covered by any range", trial, theta)
			}
		}
	}
}

// TestFindRangesEndpointsInTopK: at angles just inside each endpoint the
// tuple is genuinely in the top-k.
func TestFindRangesEndpointsInTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const delta = 1e-9
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(30)
		d := randomDataset2D(rng, n, false)
		k := 1 + rng.Intn(4)
		ranges, err := sweep.FindRanges(context.Background(), d, k)
		if err != nil {
			t.Fatal(err)
		}
		for id, r := range ranges {
			for _, theta := range []float64{r.Lo + delta, r.Hi - delta} {
				if theta < 0 || theta > geom.HalfPi {
					continue
				}
				rank, err := core.RankOfID(d, geom.FuncFromAngle2D(theta), id)
				if err != nil {
					t.Fatal(err)
				}
				if rank > k {
					t.Fatalf("t%d rank %d > k=%d just inside endpoint of [%v, %v]", id, rank, k, r.Lo, r.Hi)
				}
			}
		}
	}
}

// TestFindRangesMultiMatchesSingle: the one-sweep multi-k variant equals
// per-k FindRangesScratch results, order included.
func TestFindRangesMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 8; trial++ {
		d := randomDataset2D(rng, 8+rng.Intn(40), false)
		ks := []int{1 + rng.Intn(4), 2 + rng.Intn(6), 1 + rng.Intn(4)} // with dupes sometimes
		multi, err := sweep.FindRangesMulti(context.Background(), d, ks, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			single, err := sweep.FindRangesScratch(context.Background(), d, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(multi[i], single) {
				t.Fatalf("trial %d k=%d: multi %v vs single %v", trial, k, multi[i], single)
			}
		}
	}
	d := randomDataset2D(rng, 10, false)
	if _, err := sweep.FindRangesMulti(context.Background(), d, nil, nil); err == nil {
		t.Fatal("no k values must error")
	}
	if _, err := sweep.FindRangesMulti(context.Background(), d, []int{0}, nil); err == nil {
		t.Fatal("k=0 must error")
	}
}

func TestFindRangesKEqualsN(t *testing.T) {
	d := paperfig.Figure1()
	ranges, err := sweep.FindRanges(context.Background(), d, d.N())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != d.N() {
		t.Fatalf("got %d ranges, want all %d", len(ranges), d.N())
	}
	for id, r := range ranges {
		if r.Lo != 0 || r.Hi != geom.HalfPi {
			t.Fatalf("t%d range = [%v, %v], want full space", id, r.Lo, r.Hi)
		}
	}
}

func TestFindRangesRejectsBadK(t *testing.T) {
	d := paperfig.Figure1()
	if _, err := sweep.FindRanges(context.Background(), d, 0); err == nil {
		t.Fatal("k=0 must error")
	}
	// k > n is a typed error, not a silent clamp: the solver maps it to
	// rrr.ErrInfeasible so single and batch solves report identically.
	if _, err := sweep.FindRanges(context.Background(), d, d.N()+1); !errors.Is(err, sweep.ErrKExceedsN) {
		t.Fatalf("k > n: err = %v, want ErrKExceedsN", err)
	}
	if _, err := sweep.FindRangesMulti(context.Background(), d, []int{1, d.N() + 1}, nil); !errors.Is(err, sweep.ErrKExceedsN) {
		t.Fatalf("multi k > n: err = %v, want ErrKExceedsN", err)
	}
}

func TestKSetsPaperFigure6(t *testing.T) {
	d := paperfig.Figure1()
	sets, err := sweep.KSets(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != len(paperfig.TwoSets) {
		t.Fatalf("got %d 2-sets (%v), want %d", len(sets), sets, len(paperfig.TwoSets))
	}
	// Sweep order: {1,7} then {3,7} then {3,5}.
	for i, want := range paperfig.TwoSets {
		if !reflect.DeepEqual(sets[i], want) {
			t.Errorf("2-set[%d] = %v, want %v", i, sets[i], want)
		}
	}
}

// TestKSetsAreLPValid: every enumerated k-set passes the strict-separation
// LP (Lemma 5 direction: enumerated sets really are k-sets).
func TestKSetsAreLPValid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(15)
		d := randomDataset2D(rng, n, false)
		k := 1 + rng.Intn(3)
		sets, err := sweep.KSets(d, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sets {
			member := make(map[int]bool, len(s))
			for _, id := range s {
				member[id] = true
			}
			var in, out [][]float64
			for _, tup := range d.Tuples() {
				if member[tup.ID] {
					in = append(in, tup.Attrs)
				} else {
					out = append(out, tup.Attrs)
				}
			}
			_, _, _, ok, err := lp.StrictSeparation(in, out)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("trial %d: enumerated set %v fails the separation LP", trial, s)
			}
		}
	}
}

// TestKSetsCoverSampledTopK: the top-k of any sampled function appears in
// the enumerated collection (Lemma 5's other direction).
func TestKSetsCoverSampledTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(40)
		d := randomDataset2D(rng, n, false)
		k := 1 + rng.Intn(4)
		sets, err := sweep.KSets(d, k)
		if err != nil {
			t.Fatal(err)
		}
		have := make(map[string]bool, len(sets))
		for _, s := range sets {
			have[keyOf(s)] = true
		}
		for probe := 0; probe < 50; probe++ {
			f := geom.RandomFunc(2, rng)
			got := topk.TopKSet(d, f, k)
			if !have[keyOf(got)] {
				t.Fatalf("trial %d: top-%d %v of %v not enumerated (have %v)", trial, k, got, f, sets)
			}
		}
	}
}

func keyOf(ids []int) string {
	b := make([]byte, 0, len(ids)*4)
	for _, v := range ids {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), ',')
	}
	return string(b)
}

func TestKSetsWholeDataset(t *testing.T) {
	d := paperfig.Figure1()
	sets, err := sweep.KSets(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sets[0]) != 7 {
		t.Fatalf("k=n should yield exactly the full set, got %v", sets)
	}
	if !sort.IntsAreSorted(sets[0]) {
		t.Fatal("k-set not canonical")
	}
}

// bruteKLevel computes the k-sets and the top-k border of a 2-D dataset
// in general position by brute force: it sorts every pairwise crossing
// angle and ranks the tuples with topk at the midpoint of each interval
// between consecutive angles, where the ranking is constant. It reports
// false when two angles lie within 1e-9 of each other, where a midpoint's
// scores are within rounding of a crossing.
func bruteKLevel(d *core.Dataset, k int) (sets [][]int, border []sweep.Facet, ok bool) {
	ts := d.Tuples()
	angles := []float64{0, geom.HalfPi}
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if theta, crosses := geom.CrossAngle2D(ts[i], ts[j]); crosses {
				angles = append(angles, theta)
			}
		}
	}
	sort.Float64s(angles)
	seen := make(map[string]bool)
	for i := 0; i+1 < len(angles); i++ {
		lo, hi := angles[i], angles[i+1]
		if hi-lo < 1e-9 {
			return nil, nil, false
		}
		top := topk.TopK(d, geom.FuncFromAngle2D((lo+hi)/2), k)
		if set := slices.Sorted(slices.Values(top)); !seen[keyOf(set)] {
			seen[keyOf(set)] = true
			sets = append(sets, set)
		}
		if n := len(border); n > 0 && border[n-1].ID == top[k-1] {
			border[n-1].To = hi
		} else {
			border = append(border, sweep.Facet{ID: top[k-1], From: lo, To: hi})
		}
	}
	return sets, border, true
}

// TestKLevelMatchesBruteForce: on the paper's Figure 1 and on random
// float inputs in general position, KSets equals the brute-force
// collection, first-seen order included, and KBorder the brute-force
// border bit for bit: every facet ends at the crossing angle where the
// k-th tuple changes.
func TestKLevelMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inputs := []*core.Dataset{paperfig.Figure1()}
	for len(inputs) < 300 {
		inputs = append(inputs, randomDataset2D(rng, 1+rng.Intn(30), false))
	}
	checked := 0
	for trial, d := range inputs {
		for k := 1; k <= d.N(); k++ {
			wantSets, wantBorder, ok := bruteKLevel(d, k)
			if !ok {
				break
			}
			checked++
			sets, err := sweep.KSets(d, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sets, wantSets) {
				t.Fatalf("trial %d k=%d: KSets\n got  %v\n want %v", trial, k, sets, wantSets)
			}
			border, err := sweep.KBorder(d, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(border, wantBorder) {
				t.Fatalf("trial %d k=%d: KBorder\n got  %v\n want %v", trial, k, border, wantBorder)
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d cases in general position", checked)
	}
	t.Logf("%d cases in general position", checked)
}

// TestKBorderErrors: KBorder rejects k ≤ 0 and a dataset that is not
// 2-D, and clamps k above n to n, where the border is the chain of last
// tuples.
func TestKBorderErrors(t *testing.T) {
	d := paperfig.Figure1()
	for _, k := range []int{0, -1} {
		if _, err := sweep.KBorder(d, k); err == nil {
			t.Errorf("k=%d must error", k)
		}
	}
	if _, err := sweep.KBorder(core.MustNewDataset([][]float64{{1, 2, 3}}), 1); err == nil {
		t.Error("3-D input must error")
	}
	atN, err := sweep.KBorder(d, d.N())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{d.N() + 1, 99} {
		got, err := sweep.KBorder(d, k)
		if err != nil {
			t.Fatalf("k=%d > n must clamp: %v", k, err)
		}
		if !reflect.DeepEqual(got, atN) {
			t.Fatalf("k=%d: %v, want the k = n border %v", k, got, atN)
		}
	}
	if _, want, _ := bruteKLevel(d, d.N()); !reflect.DeepEqual(atN, want) {
		t.Fatalf("k = n: %v, want %v", atN, want)
	}
}

// bruteRankRegret2D estimates rank-regret by dense angle probing; with
// probes between all event angles it is exact.
func bruteRankRegret2D(t *testing.T, d *core.Dataset, ids []int) int {
	t.Helper()
	var angles []float64
	if _, err := sweep.Sweep(d, func(e sweep.Event) bool {
		angles = append(angles, e.Theta)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	probes := []float64{1e-7, geom.HalfPi - 1e-7}
	prev := 0.0
	for _, a := range angles {
		if a > prev {
			probes = append(probes, (prev+a)/2)
		}
		prev = a
	}
	probes = append(probes, (prev+geom.HalfPi)/2)
	worst := 0
	for _, p := range probes {
		rr, err := core.RankRegret(d, geom.FuncFromAngle2D(p), ids)
		if err != nil {
			t.Fatal(err)
		}
		if rr > worst {
			worst = rr
		}
	}
	return worst
}

func TestExactRankRegretMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(30)
		d := randomDataset2D(rng, n, false)
		size := 1 + rng.Intn(4)
		perm := rng.Perm(n)[:size]
		got, err := sweep.ExactRankRegret(d, perm)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRankRegret2D(t, d, perm)
		if got != want {
			t.Fatalf("trial %d: ExactRankRegret(%v) = %d, want %d", trial, perm, got, want)
		}
	}
}

// TestExactRankRegretMultiMatchesSingle: the batched evaluator agrees with
// the per-subset one.
func TestExactRankRegretMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(30)
		d := randomDataset2D(rng, n, false)
		subsets := make([][]int, 1+rng.Intn(4))
		for i := range subsets {
			subsets[i] = rng.Perm(n)[:1+rng.Intn(3)]
		}
		subsets = append(subsets, nil) // empty subset edge case
		multi, err := sweep.ExactRankRegretMulti(d, subsets)
		if err != nil {
			t.Fatal(err)
		}
		for i, ids := range subsets {
			want, err := sweep.ExactRankRegret(d, ids)
			if err != nil {
				t.Fatal(err)
			}
			if multi[i] != want {
				t.Fatalf("trial %d subset %d: multi=%d single=%d", trial, i, multi[i], want)
			}
		}
	}
	// Unknown IDs must error.
	d := randomDataset2D(rng, 5, false)
	if _, err := sweep.ExactRankRegretMulti(d, [][]int{{99}}); err == nil {
		t.Fatal("unknown ID must error")
	}
}

func TestExactRankRegretPaperStatement(t *testing.T) {
	// "for any set X containing t7 or t1, for f = x1, RR_f(X) <= 2" and the
	// 2DRRR output {t3, t1} has rank-regret 2 for k=2.
	d := paperfig.Figure1()
	got, err := sweep.ExactRankRegret(d, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got > 2 {
		t.Fatalf("ExactRankRegret({t1,t3}) = %d, want <= 2", got)
	}
	// A single middling tuple has large exact rank-regret.
	got, err = sweep.ExactRankRegret(d, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if got < 6 {
		t.Fatalf("ExactRankRegret({t4}) = %d, want >= 6", got)
	}
}

func TestExactRankRegretEdgeCases(t *testing.T) {
	d := paperfig.Figure1()
	rr, err := sweep.ExactRankRegret(d, nil)
	if err != nil || rr != d.N()+1 {
		t.Fatalf("empty subset: %d, %v", rr, err)
	}
	if _, err := sweep.ExactRankRegret(d, []int{42}); err == nil {
		t.Fatal("unknown ID must error")
	}
	one := core.MustNewDataset([][]float64{{0.3, 0.7}})
	rr, err = sweep.ExactRankRegret(one, []int{0})
	if err != nil || rr != 1 {
		t.Fatalf("singleton: %d, %v", rr, err)
	}
}

func TestSweepHandlesDuplicatesAndTies(t *testing.T) {
	// Duplicate points, shared coordinates, concurrent crossings.
	d := core.MustNewDataset([][]float64{
		{0.5, 0.5}, {0.5, 0.5}, {0.2, 0.8}, {0.8, 0.2}, {0.5, 0.5}, {0.2, 0.8},
	})
	count, err := sweep.Sweep(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("expected some events")
	}
	// Order at the end must match the direct ranking near π/2.
	got := replayOrderAt(t, d, geom.HalfPi)
	want := topk.Ranking(d, geom.FuncFromAngle2D(geom.HalfPi-1e-9))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final order %v, want %v", got, want)
	}
}

// Concurrent crossings: three points on a line all cross pairwise at the
// same angle. The sweep must execute all three exchanges.
func TestSweepConcurrentCrossings(t *testing.T) {
	d := core.MustNewDataset([][]float64{
		{0.9, 0.1}, {0.6, 0.4}, {0.3, 0.7},
	})
	count, err := sweep.Sweep(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("got %d events, want 3 concurrent exchanges", count)
	}
	got := replayOrderAt(t, d, geom.HalfPi)
	want := topk.Ranking(d, geom.FuncFromAngle2D(geom.HalfPi-1e-9))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final order %v, want %v", got, want)
	}
}
