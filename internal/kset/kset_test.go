package kset_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"rrr/internal/core"
	"rrr/internal/geom"
	"rrr/internal/kset"
	"rrr/internal/paperfig"
	"rrr/internal/sweep"
	"rrr/internal/topk"
)

func randomDataset(rng *rand.Rand, n, dims int) *core.Dataset {
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, dims)
		for j := range p {
			p[j] = rng.Float64()
		}
		points[i] = p
	}
	return core.MustNewDataset(points)
}

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

func TestCollectionBasics(t *testing.T) {
	c := kset.NewCollection()
	if !c.Add([]int{1, 3}) {
		t.Fatal("first Add must be new")
	}
	if c.Add([]int{1, 3}) {
		t.Fatal("duplicate Add must report false")
	}
	if !c.Contains([]int{1, 3}) || c.Contains([]int{1, 4}) {
		t.Fatal("Contains wrong")
	}
	c.Add([]int{2, 5})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.Universe(); !reflect.DeepEqual(got, []int{1, 2, 3, 5}) {
		t.Fatalf("Universe = %v", got)
	}
}

func TestCanonSortsCopy(t *testing.T) {
	in := []int{5, 1, 3}
	got := kset.Canon(in)
	if !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("Canon = %v", got)
	}
	if !reflect.DeepEqual(in, []int{5, 1, 3}) {
		t.Fatal("Canon mutated its input")
	}
}

func TestSamplePaper2Sets(t *testing.T) {
	d := paperfig.Figure1()
	col, stats, err := kset.Sample(context.Background(), d, 2, kset.SampleOptions{Termination: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := sortedSets(paperfig.TwoSets)
	got := sortedSets(col.Sets())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sampled 2-sets = %v, want %v", got, want)
	}
	if stats.Distinct != 3 || stats.Draws < 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSampleMatchesSweepIn2D(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, 8+rng.Intn(20), 2)
		k := 1 + rng.Intn(3)
		exact, err := sweep.KSets(d, k)
		if err != nil {
			t.Fatal(err)
		}
		col, _, err := kset.Sample(context.Background(), d, k, kset.SampleOptions{Termination: 400, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		// Sampling may miss slivers but never invents sets: sampled ⊆ exact.
		exactKeys := map[string]bool{}
		for _, s := range exact {
			exactKeys[keyOf(s)] = true
		}
		for _, s := range col.Sets() {
			if !exactKeys[keyOf(s)] {
				t.Fatalf("trial %d: sampled set %v not among exact %v", trial, s, exact)
			}
		}
		// With a generous termination the miss rate should be tiny; demand
		// at least 80%% coverage.
		if col.Len()*5 < len(exact)*4 {
			t.Fatalf("trial %d: sampled %d of %d exact k-sets", trial, col.Len(), len(exact))
		}
	}
}

func keyOf(ids []int) string {
	b := make([]byte, 0, len(ids)*4)
	for _, v := range ids {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	d := paperfig.Figure1()
	a, sa, err := kset.Sample(context.Background(), d, 2, kset.SampleOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := kset.Sample(context.Background(), d, 2, kset.SampleOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Sets(), b.Sets()) || sa != sb {
		t.Fatal("same seed diverged")
	}
}

func TestSampleTruncation(t *testing.T) {
	d := paperfig.Figure1()
	_, stats, err := kset.Sample(context.Background(), d, 2, kset.SampleOptions{Termination: 1000, MaxDraws: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated || stats.Draws != 5 {
		t.Fatalf("stats = %+v, want truncation at 5 draws", stats)
	}
}

func TestSampleRejectsBadK(t *testing.T) {
	d := paperfig.Figure1()
	// k = n is the largest valid target: one full set.
	col, _, err := kset.Sample(context.Background(), d, d.N(), kset.SampleOptions{Termination: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 1 || len(col.Sets()[0]) != d.N() {
		t.Fatalf("k=n must yield the single full set, got %v", col.Sets())
	}
	// k > n is an error, not a silent clamp — same contract as
	// sweep.FindRanges and SampleMulti.
	if _, _, err := kset.Sample(context.Background(), d, 99, kset.SampleOptions{Termination: 5, Seed: 1}); err == nil {
		t.Fatal("k>n must error")
	}
	if _, _, err := kset.Sample(context.Background(), d, 0, kset.SampleOptions{}); err == nil {
		t.Fatal("k=0 must error")
	}
}

// TestSampleMultiMatchesSingle is the shared-state property the batch
// engine rests on: for every k, SampleMulti's collection, draw count and
// truncation flag equal an independent Sample run with the same options —
// the one shared function stream is observationally invisible per k.
func TestSampleMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(40)
		dims := 2 + rng.Intn(3)
		d := randomDataset(rng, n, dims)
		ks := []int{1 + rng.Intn(3), 2 + rng.Intn(5), 1 + rng.Intn(n/2), 1 + rng.Intn(3)}
		opt := kset.SampleOptions{Termination: 30, MaxDraws: 5000, Seed: int64(trial + 1)}
		cols, stats, errs := kset.SampleMulti(context.Background(), d, ks, opt)
		for i, k := range ks {
			if errs[i] != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, errs[i])
			}
			single, sstats, err := kset.Sample(context.Background(), d, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cols[i].Sets(), single.Sets()) {
				t.Fatalf("trial %d k=%d: multi found %d sets, single %d — collections diverged",
					trial, k, cols[i].Len(), single.Len())
			}
			if stats[i] != sstats {
				t.Fatalf("trial %d k=%d: stats %+v vs single %+v", trial, k, stats[i], sstats)
			}
		}
	}
}

// TestSampleMultiPerKBudgets: a hard draw budget fails exactly the k
// values that would fail individually, leaving the cheap ones intact.
func TestSampleMultiPerKBudgets(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(3)), 60, 3)
	// k=1 terminates in a handful of draws; the budget of 5 draws kills
	// every k whose termination rule hasn't fired by then.
	opt := kset.SampleOptions{Termination: 1000, MaxDraws: 5, HardMaxDraws: true, Seed: 1}
	cols, stats, errs := kset.SampleMulti(context.Background(), d, []int{4, 9}, opt)
	for i := range errs {
		if !errors.Is(errs[i], kset.ErrDrawBudget) {
			t.Fatalf("k index %d: err = %v, want ErrDrawBudget", i, errs[i])
		}
		if stats[i].Draws != 5 || !stats[i].Truncated {
			t.Fatalf("k index %d: stats = %+v, want 5 truncated draws", i, stats[i])
		}
		if cols[i].Len() == 0 {
			t.Fatalf("k index %d: partial collection missing", i)
		}
	}
	// Invalid k values fail per item without touching valid ones.
	cols, _, errs = kset.SampleMulti(context.Background(), d,
		[]int{2, 0, d.N() + 1}, kset.SampleOptions{Termination: 10, Seed: 1})
	if errs[0] != nil || cols[0].Len() == 0 {
		t.Fatalf("valid k poisoned by invalid neighbors: %v", errs[0])
	}
	if errs[1] == nil || errs[2] == nil {
		t.Fatalf("invalid ks accepted: %v %v", errs[1], errs[2])
	}
}

func TestIsValidPaperExamples(t *testing.T) {
	d := paperfig.Figure1()
	for _, s := range paperfig.TwoSets {
		f, ok, err := kset.IsValid(d, s)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%v should be valid", s)
		}
		// The witness function's top-k must be exactly the k-set.
		got := topk.TopKSet(d, f, 2)
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("witness top-2 = %v, want %v", got, s)
		}
	}
	if _, ok, err := kset.IsValid(d, []int{1, 3}); err != nil || ok {
		t.Fatalf("{t1,t3} must be invalid (ok=%v err=%v)", ok, err)
	}
	if _, _, err := kset.IsValid(d, []int{1, 99}); err == nil {
		t.Fatal("unknown ID must error")
	}
	if _, _, err := kset.IsValid(d, []int{1, 1}); err == nil {
		t.Fatal("duplicate IDs must error")
	}
}

func TestGraphEnumeratePaper2Sets(t *testing.T) {
	d := paperfig.Figure1()
	col, err := kset.GraphEnumerate(d, 2, kset.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := sortedSets(col.Sets())
	want := sortedSets(paperfig.TwoSets)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GraphEnumerate = %v, want %v", got, want)
	}
}

// TestGraphEnumerateMatchesSweep2D: the exact BFS agrees with the exact
// sweep enumeration on random 2-D datasets.
func TestGraphEnumerateMatchesSweep2D(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		d := randomDataset(rng, 6+rng.Intn(10), 2)
		k := 1 + rng.Intn(3)
		bySweep, err := sweep.KSets(d, k)
		if err != nil {
			t.Fatal(err)
		}
		byGraph, err := kset.GraphEnumerate(d, k, kset.GraphOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedSets(byGraph.Sets()), sortedSets(bySweep)) {
			t.Fatalf("trial %d: graph %v vs sweep %v", trial, byGraph.Sets(), bySweep)
		}
	}
}

// TestGraphEnumerate3DCoversSampledTopK: in 3-D every sampled function's
// top-k must appear in the exact enumeration (Lemma 5).
func TestGraphEnumerate3DCoversSampledTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := randomDataset(rng, 12, 3)
	k := 2
	col, err := kset.GraphEnumerate(d, k, kset.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 60; probe++ {
		f := geom.RandomFunc(3, rng)
		s := topk.TopKSet(d, f, k)
		if !col.Contains(s) {
			t.Fatalf("top-%d %v of sampled function missing from exact enumeration %v", k, s, col.Sets())
		}
	}
}

// TestGraphEnumerateWorkerInvariance: the parallel LP validation must not
// change the enumeration for any worker count (GOMAXPROCS).
func TestGraphEnumerateWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(91))
	d := randomDataset(rng, 12, 3)
	base, err := kset.GraphEnumerate(d, 2, kset.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		runtime.GOMAXPROCS(workers)
		got, err := kset.GraphEnumerate(d, 2, kset.GraphOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Sets(), base.Sets()) {
			t.Fatalf("workers=%d changed the enumeration order/content", workers)
		}
	}
}

func TestGraphEnumerateCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDataset(rng, 14, 2)
	col, err := kset.GraphEnumerate(d, 2, kset.GraphOptions{MaxSets: 2})
	if err == nil {
		t.Fatalf("expected cap error, got %d sets", col.Len())
	}
	if col == nil || col.Len() < 2 {
		t.Fatal("capped run should still return partial collection")
	}
}

func TestGraphEnumerateKGreaterEqualN(t *testing.T) {
	d := paperfig.Figure1()
	col, err := kset.GraphEnumerate(d, 7, kset.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 1 || len(col.Sets()[0]) != 7 {
		t.Fatalf("k=n: %v", col.Sets())
	}
	if _, err := kset.GraphEnumerate(d, 0, kset.GraphOptions{}); err == nil {
		t.Fatal("k=0 must error")
	}
}

func TestGraphEnumerateWithTiesOnFirstAttribute(t *testing.T) {
	// All points share attribute 1, so the axis-aligned seed candidate is
	// not strictly separable; the fallback must find a valid start.
	d := core.MustNewDataset([][]float64{
		{0.5, 0.9}, {0.5, 0.7}, {0.5, 0.5}, {0.5, 0.3},
	})
	col, err := kset.GraphEnumerate(d, 2, kset.GraphOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// x2 is the only discriminator: the single 2-set is the top two by x2.
	want := [][]int{{0, 1}}
	if !reflect.DeepEqual(sortedSets(col.Sets()), want) {
		t.Fatalf("got %v, want %v", col.Sets(), want)
	}
}

func TestUpperBoundFormulas(t *testing.T) {
	if got := kset.UpperBound(1000, 8, 2); got != 2000 {
		t.Errorf("2-D bound = %v, want n·k^(1/3) = 2000", got)
	}
	if got := kset.UpperBound(100, 4, 3); got != 800 {
		t.Errorf("3-D bound = %v, want n·k^(3/2) = 800", got)
	}
	if got := kset.UpperBound(10, 2, 4); got <= 1e3 || got >= 1e4 {
		t.Errorf("4-D bound = %v, want ≈ n^(d-ε) ≈ 10^3.95", got)
	}
	if kset.UpperBound(0, 5, 3) != 0 || kset.UpperBound(5, 0, 3) != 0 {
		t.Error("degenerate inputs must yield 0")
	}
	// Monotone in k for fixed n, d<=3.
	if kset.UpperBound(1000, 100, 3) <= kset.UpperBound(1000, 10, 3) {
		t.Error("bound must grow with k")
	}
}

// TestSampledSetsAreValid: every k-set found by sampling passes the LP
// validation (they are genuine k-sets by construction, Lemma 5).
func TestSampledSetsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := randomDataset(rng, 15, 3)
	col, _, err := kset.Sample(context.Background(), d, 3, kset.SampleOptions{Termination: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range col.Sets() {
		if _, ok, err := kset.IsValid(d, s); err != nil || !ok {
			t.Fatalf("sampled set %v invalid (ok=%v err=%v)", s, ok, err)
		}
	}
}
