package algo_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"rrr/internal/algo"
	"rrr/internal/core"
	"rrr/internal/cover"
	"rrr/internal/eval"
	"rrr/internal/kset"
	"rrr/internal/paperfig"
	"rrr/internal/sweep"
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

// bruteOptimalRRR2D finds the true minimum subset with exact rank-regret
// ≤ k by subset enumeration (2-D, small n only).
func bruteOptimalRRR2D(t *testing.T, d *core.Dataset, k int) int {
	t.Helper()
	n := d.N()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = d.Tuple(i).ID
	}
	for size := 1; size <= n; size++ {
		if subsetOfSizeWorks(t, d, k, ids, nil, 0, size) {
			return size
		}
	}
	return n
}

func subsetOfSizeWorks(t *testing.T, d *core.Dataset, k int, ids, chosen []int, start, size int) bool {
	t.Helper()
	if len(chosen) == size {
		rr, err := sweep.ExactRankRegret(d, chosen)
		if err != nil {
			t.Fatal(err)
		}
		return rr <= k
	}
	for i := start; i < len(ids); i++ {
		if subsetOfSizeWorks(t, d, k, ids, append(chosen, ids[i]), i+1, size) {
			return true
		}
	}
	return false
}

func TestTwoDRRRPaperExample(t *testing.T) {
	d := paperfig.Figure1()
	res, err := algo.TwoDRRR(context.Background(), d, 2, algo.TwoDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.IDs, paperfig.TwoDRRROutput) {
		t.Fatalf("TwoDRRR = %v, want %v (paper: {t3, t1})", res.IDs, paperfig.TwoDRRROutput)
	}
	if res.Stats.Ranges != 4 {
		t.Fatalf("Ranges = %d, want 4 (Figure 4)", res.Stats.Ranges)
	}
}

// TestTwoDRRRTheorems3And4: with the provably minimal cover the output is
// no larger than the optimal RRR (Theorem 3); with either cover the exact
// rank-regret is at most 2k (Theorem 4).
func TestTwoDRRRTheorems3And4(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(12)
		d := randomDataset(rng, n, 2)
		k := 1 + rng.Intn(3)
		opt := bruteOptimalRRR2D(t, d, k)
		for _, strategy := range []algo.CoverStrategy{algo.CoverMaxGain, algo.CoverOptimalSweep} {
			res, err := algo.TwoDRRR(context.Background(), d, k, algo.TwoDOptions{Cover: strategy})
			if err != nil {
				t.Fatal(err)
			}
			rr, err := sweep.ExactRankRegret(d, res.IDs)
			if err != nil {
				t.Fatal(err)
			}
			if rr > 2*k {
				t.Fatalf("trial %d strategy %d: rank-regret %d > 2k=%d", trial, strategy, rr, 2*k)
			}
			if strategy == algo.CoverOptimalSweep && len(res.IDs) > opt {
				t.Fatalf("trial %d: output size %d > optimal %d (violates Theorem 3)", trial, len(res.IDs), opt)
			}
		}
	}
}

// TestTwoDRRRCoverStrategies: the classic sweep cover is never larger than
// the paper's max-gain greedy (reproduction finding: max-gain can be
// suboptimal; the known first divergence under this seed is 3 vs 2).
func TestTwoDRRRCoverStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	diverged := false
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, 10+rng.Intn(40), 2)
		k := 1 + rng.Intn(4)
		a, err := algo.TwoDRRR(context.Background(), d, k, algo.TwoDOptions{Cover: algo.CoverMaxGain})
		if err != nil {
			t.Fatal(err)
		}
		b, err := algo.TwoDRRR(context.Background(), d, k, algo.TwoDOptions{Cover: algo.CoverOptimalSweep})
		if err != nil {
			t.Fatal(err)
		}
		if len(b.IDs) > len(a.IDs) {
			t.Fatalf("trial %d: optimal-sweep size %d > max-gain size %d", trial, len(b.IDs), len(a.IDs))
		}
		if len(b.IDs) < len(a.IDs) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("expected at least one divergence under this seed (documents the max-gain suboptimality finding)")
	}
}

func TestTwoDRRRErrors(t *testing.T) {
	d3 := core.MustNewDataset([][]float64{{1, 2, 3}})
	if _, err := algo.TwoDRRR(context.Background(), d3, 1, algo.TwoDOptions{}); err == nil {
		t.Error("3-D input must error")
	}
	d := paperfig.Figure1()
	if _, err := algo.TwoDRRR(context.Background(), d, 0, algo.TwoDOptions{}); err == nil {
		t.Error("k=0 must error")
	}
	if _, err := algo.TwoDRRR(context.Background(), nil, 1, algo.TwoDOptions{}); err == nil {
		t.Error("nil dataset must error")
	}
	if _, err := algo.TwoDRRR(context.Background(), d, 1, algo.TwoDOptions{Cover: 99}); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestTwoDRRRKLargerThanN(t *testing.T) {
	d := paperfig.Figure1()
	// k = n is the largest feasible target: every tuple is always in the
	// top-n, so any single tuple suffices.
	res, err := algo.TwoDRRR(context.Background(), d, d.N(), algo.TwoDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("k = n: any single tuple suffices, got %v", res.IDs)
	}
	// k > n propagates the sweep's typed rejection instead of clamping.
	if _, err := algo.TwoDRRR(context.Background(), d, 100, algo.TwoDOptions{}); !errors.Is(err, sweep.ErrKExceedsN) {
		t.Fatalf("k > n: err = %v, want sweep.ErrKExceedsN", err)
	}
}

func TestMDRRRGuaranteesKWithExactKSets2D(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(25)
		d := randomDataset(rng, n, 2)
		k := 1 + rng.Intn(3)
		exact, err := sweep.KSets(d, k)
		if err != nil {
			t.Fatal(err)
		}
		col := kset.NewCollection()
		for _, s := range exact {
			col.Add(s)
		}
		res, err := algo.MDRRRFromSample(context.Background(), d, col, kset.SampleStats{}, nil, algo.MDRRROptions{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := sweep.ExactRankRegret(d, res.IDs)
		if err != nil {
			t.Fatal(err)
		}
		if rr > k {
			t.Fatalf("trial %d: MDRRR with exact k-sets has rank-regret %d > k=%d", trial, rr, k)
		}
		if res.Stats.KSets != len(exact) {
			t.Fatalf("Stats.KSets = %d, want %d", res.Stats.KSets, len(exact))
		}
	}
}

func TestMDRRRWithSampling3D(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := randomDataset(rng, 60, 3)
	k := 5
	res, err := algo.MDRRR(context.Background(), d, k, algo.MDRRROptions{
		Sampler: kset.SampleOptions{Termination: 1000, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SamplerDraws == 0 || res.Stats.KSets == 0 {
		t.Fatalf("missing sampler stats: %+v", res.Stats)
	}
	// The ≤ k guarantee holds for every *discovered* k-set; fresh samples
	// can land in undiscovered slivers where the rank exceeds k slightly
	// (Section 5.2.1). Assert the practical bound the paper reports: at
	// most marginally above k, never the unbounded blow-up of the
	// score-regret baselines.
	rr, _, err := eval.EstimateRankRegret(d, res.IDs, eval.Options{Samples: 2000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if rr > k+2 {
		t.Fatalf("estimated rank-regret %d > k+2=%d", rr, k+2)
	}
}

func TestMDRRRHitsEveryKSet(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	d := randomDataset(rng, 40, 3)
	k := 4
	col, _, err := kset.Sample(context.Background(), d, k, kset.SampleOptions{Termination: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []algo.HittingStrategy{algo.HitGreedy, algo.HitEpsilonNet} {
		res, err := algo.MDRRRFromSample(context.Background(), d, col, kset.SampleStats{}, nil, algo.MDRRROptions{Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		if !cover.VerifyHits(col.Sets(), res.IDs) {
			t.Fatalf("strategy %d: output misses a k-set", strategy)
		}
	}
}

func TestMDRRRErrors(t *testing.T) {
	d := paperfig.Figure1()
	if _, err := algo.MDRRR(context.Background(), d, 0, algo.MDRRROptions{}); err == nil {
		t.Error("k=0 must error")
	}
	if _, err := algo.MDRRRFromSample(context.Background(), d, kset.NewCollection(), kset.SampleStats{}, nil, algo.MDRRROptions{}); err == nil {
		t.Error("empty provided collection must error")
	}
	if _, err := algo.MDRRR(context.Background(), d, 2, algo.MDRRROptions{Strategy: 99}); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestMDRCPaperExample(t *testing.T) {
	d := paperfig.Figure1()
	res, err := algo.MDRC(context.Background(), d, 2, algo.MDRCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sweep.ExactRankRegret(d, res.IDs)
	if err != nil {
		t.Fatal(err)
	}
	if rr > 2 {
		t.Fatalf("MDRC rank-regret %d > k=2 on the paper example", rr)
	}
	if res.Stats.Fallbacks != 0 {
		t.Fatalf("unexpected fallbacks: %+v", res.Stats)
	}
}

// TestMDRCTheorem6In2D: exact rank-regret ≤ d·k = 2k.
func TestMDRCTheorem6In2D(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(60)
		d := randomDataset(rng, n, 2)
		// k >= 2: with k = 1 the regions of adjacent hull vertices touch
		// at a point and share no common tuple, so the recursion
		// legitimately bottoms out in the fallback.
		k := 2 + rng.Intn(4)
		res, err := algo.MDRC(context.Background(), d, k, algo.MDRCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := sweep.ExactRankRegret(d, res.IDs)
		if err != nil {
			t.Fatal(err)
		}
		if rr > 2*k {
			t.Fatalf("trial %d: rank-regret %d > dk=%d", trial, rr, 2*k)
		}
		if res.Stats.Fallbacks != 0 {
			t.Fatalf("trial %d: fallbacks %d", trial, res.Stats.Fallbacks)
		}
	}
}

// TestMDRCTheorem6InMD: estimated rank-regret ≤ d·k in 3-D and 4-D.
func TestMDRCTheorem6InMD(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, dims := range []int{3, 4} {
		for trial := 0; trial < 4; trial++ {
			n := 30 + rng.Intn(80)
			d := randomDataset(rng, n, dims)
			k := 2 + rng.Intn(6)
			res, err := algo.MDRC(context.Background(), d, k, algo.MDRCOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rr, _, err := eval.EstimateRankRegret(d, res.IDs, eval.Options{Samples: 3000, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			if rr > dims*k {
				t.Fatalf("d=%d trial %d: estimated rank-regret %d > dk=%d", dims, trial, rr, dims*k)
			}
		}
	}
}

func TestMDRCPickStrategiesBothCover(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	d := randomDataset(rng, 50, 3)
	k := 5
	for _, pick := range []algo.PickStrategy{algo.PickFirst, algo.PickMinMaxRank} {
		res, err := algo.MDRC(context.Background(), d, k, algo.MDRCOptions{Pick: pick})
		if err != nil {
			t.Fatal(err)
		}
		rr, _, err := eval.EstimateRankRegret(d, res.IDs, eval.Options{Samples: 2000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if rr > 3*k {
			t.Fatalf("pick %d: rank-regret %d > dk", pick, rr)
		}
	}
}

func TestMDRCMemoizationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	d := randomDataset(rng, 40, 3)
	withMemo, err := algo.MDRC(context.Background(), d, 4, algo.MDRCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := algo.MDRC(context.Background(), d, 4, algo.MDRCOptions{DisableMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withMemo.IDs, without.IDs) {
		t.Fatalf("memoization changed output: %v vs %v", withMemo.IDs, without.IDs)
	}
	if withMemo.Stats.CacheHits == 0 {
		t.Error("expected cache hits with memoization on")
	}
	if without.Stats.CacheHits != 0 {
		t.Error("expected no cache hits with memoization off")
	}
	if withMemo.Stats.TopKQueries >= without.Stats.TopKQueries {
		t.Errorf("memoization did not reduce top-k queries: %d vs %d",
			withMemo.Stats.TopKQueries, without.Stats.TopKQueries)
	}
}

// TestMDRCWorkerInvariance: the parallel corner scans must not change the
// output or the instrumentation for any worker count (GOMAXPROCS).
func TestMDRCWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(137))
	d := randomDataset(rng, 300, 4)
	base, err := algo.MDRC(context.Background(), d, 10, algo.MDRCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		runtime.GOMAXPROCS(workers)
		got, err := algo.MDRC(context.Background(), d, 10, algo.MDRCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.IDs, base.IDs) {
			t.Fatalf("workers=%d changed output: %v vs %v", workers, got.IDs, base.IDs)
		}
		if got.Stats != base.Stats {
			t.Fatalf("workers=%d changed stats: %+v vs %+v", workers, got.Stats, base.Stats)
		}
	}
}

func TestMDRCDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	d := randomDataset(rng, 60, 4)
	a, err := algo.MDRC(context.Background(), d, 6, algo.MDRCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := algo.MDRC(context.Background(), d, 6, algo.MDRCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.IDs, b.IDs) || a.Stats != b.Stats {
		t.Fatal("MDRC must be deterministic")
	}
}

func TestMDRCErrors(t *testing.T) {
	if _, err := algo.MDRC(context.Background(), nil, 1, algo.MDRCOptions{}); err == nil {
		t.Error("nil dataset must error")
	}
	d1 := core.MustNewDataset([][]float64{{1}})
	if _, err := algo.MDRC(context.Background(), d1, 1, algo.MDRCOptions{}); err == nil {
		t.Error("1-D dataset must error")
	}
	d := paperfig.Figure1()
	if _, err := algo.MDRC(context.Background(), d, -1, algo.MDRCOptions{}); err == nil {
		t.Error("negative k must error")
	}
}

// TestMDRCKOneTerminates: k = 1 is the pathological order (adjacent top-1
// regions never share a tuple, so the subdivision would trace the region
// boundaries forever); the node budget must bound the run while keeping
// full coverage via fallbacks.
func TestMDRCKOneTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	d := randomDataset(rng, 200, 3)
	res, err := algo.MDRC(context.Background(), d, 1, algo.MDRCOptions{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	// The budget stops expansion; nodes already queued on the recursion
	// stack still resolve, so a small overshoot (bounded by the tree
	// depth) is expected.
	if res.Stats.Nodes > 20000+200 {
		t.Fatalf("node budget not honored: %d nodes", res.Stats.Nodes)
	}
	if res.Stats.Fallbacks == 0 {
		t.Fatal("k=1 in 3-D must hit the fallback path")
	}
	if len(res.IDs) == 0 {
		t.Fatal("no output")
	}
	// Coverage sanity: the estimated rank-regret stays far below n even
	// though the dk=3 bound no longer holds on fallback slivers.
	rr, _, err := eval.EstimateRankRegret(d, res.IDs, eval.Options{Samples: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rr > d.N()/4 {
		t.Fatalf("rank-regret %d suggests broken coverage", rr)
	}
}

func TestMDRCKClamped(t *testing.T) {
	d := paperfig.Figure1()
	res, err := algo.MDRC(context.Background(), d, 999, algo.MDRCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("k>=n: one tuple suffices, got %v", res.IDs)
	}
}

func TestResultIDsSortedAndDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	d := randomDataset(rng, 50, 3)
	res, err := algo.MDRC(context.Background(), d, 3, algo.MDRCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(res.IDs) {
		t.Fatal("IDs not sorted")
	}
	for i := 1; i < len(res.IDs); i++ {
		if res.IDs[i] == res.IDs[i-1] {
			t.Fatal("IDs not deduped")
		}
	}
}

// TestMDRCOutputSmall mirrors the paper's headline observation: outputs
// stay small (< 40 across all their settings).
func TestMDRCOutputSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	d := randomDataset(rng, 500, 4)
	res, err := algo.MDRC(context.Background(), d, 25, algo.MDRCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) >= 40 {
		t.Fatalf("output size %d unexpectedly large", len(res.IDs))
	}
}

// TestMDRCSparseIDs: MDRC on tuples whose IDs are 2^40 + 7·i must pick
// the same tuples and do the same work as on the contiguous relabelling,
// under both pick rules; nothing in it may size memory by ID magnitude.
func TestMDRCSparseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	dense := randomDataset(rng, 400, 4)
	const base = 1 << 40
	ts := make([]core.Tuple, dense.N())
	for i, tu := range dense.Tuples() {
		ts[i] = core.Tuple{ID: base + 7*tu.ID, Attrs: tu.Attrs}
	}
	sparse, err := core.FromTuples(ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pick := range []algo.PickStrategy{algo.PickFirst, algo.PickMinMaxRank} {
		for _, k := range []int{3, 12} {
			want, err := algo.MDRC(context.Background(), dense, k, algo.MDRCOptions{Pick: pick})
			if err != nil {
				t.Fatal(err)
			}
			got, err := algo.MDRC(context.Background(), sparse, k, algo.MDRCOptions{Pick: pick})
			if err != nil {
				t.Fatal(err)
			}
			mapped := make([]int, len(got.IDs))
			for i, id := range got.IDs {
				mapped[i] = (id - base) / 7
			}
			if !reflect.DeepEqual(mapped, want.IDs) || got.Stats != want.Stats {
				t.Errorf("pick %d k=%d: sparse picks %v stats %+v, contiguous %v stats %+v",
					pick, k, mapped, got.Stats, want.IDs, want.Stats)
			}
		}
	}
}
