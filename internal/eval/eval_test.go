package eval_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"rrr/internal/core"
	"rrr/internal/eval"
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

func TestEstimateNeverExceedsExact2D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, 10+rng.Intn(40), 2)
		ids := rng.Perm(d.N())[:1+rng.Intn(3)]
		exact, err := sweep.ExactRankRegret(d, ids)
		if err != nil {
			t.Fatal(err)
		}
		est, _, err := eval.EstimateRankRegret(d, ids, eval.Options{Samples: 3000, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if est > exact {
			t.Fatalf("trial %d: estimate %d > exact %d", trial, est, exact)
		}
		// With dense sampling the estimate should be close for most sets.
		if est < exact/2 {
			t.Logf("trial %d: estimate %d far below exact %d (narrow worst-case region)", trial, est, exact)
		}
	}
}

func TestEstimateWitnessIsConsistent(t *testing.T) {
	d := paperfig.Figure1()
	ids := []int{4} // middling tuple: large regret somewhere
	worst, witness, err := eval.EstimateRankRegret(d, ids, eval.Options{Samples: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.RankRegretAt(d, witness, ids)
	if err != nil {
		t.Fatal(err)
	}
	if got != worst {
		t.Fatalf("witness reproduces %d, estimator reported %d", got, worst)
	}
}

func TestRankRegretAtMatchesCore(t *testing.T) {
	d := paperfig.Figure1()
	f := core.NewLinearFunc(1, 0)
	for _, ids := range [][]int{{7}, {6}, {1, 5}, {2, 4, 6}} {
		want, err := core.RankRegret(d, f, ids)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eval.RankRegretAt(d, f, ids)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("RankRegretAt(%v) = %d, want %d", ids, got, want)
		}
	}
}

func TestRegretRatioKnownValues(t *testing.T) {
	d := paperfig.Figure1()
	f := core.NewLinearFunc(1, 0) // max score 0.91 (t7)
	r, err := eval.RegretRatio(d, f, []int{7})
	if err != nil || r != 0 {
		t.Fatalf("top tuple must have zero regret, got %v, %v", r, err)
	}
	r, err = eval.RegretRatio(d, f, []int{6}) // t6 x1 = 0.23
	if err != nil {
		t.Fatal(err)
	}
	want := (0.91 - 0.23) / 0.91
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("RegretRatio = %v, want %v", r, want)
	}
	r, err = eval.RegretRatio(d, f, nil)
	if err != nil || r != 1 {
		t.Fatalf("empty subset ratio = %v, %v, want 1", r, err)
	}
}

func TestRegretRatioDegenerateZeroScores(t *testing.T) {
	d := core.MustNewDataset([][]float64{{0, 0}, {0, 0}})
	r, err := eval.RegretRatio(d, core.NewLinearFunc(1, 1), []int{1})
	if err != nil || r != 0 {
		t.Fatalf("zero-score dataset ratio = %v, %v, want 0", r, err)
	}
}

func TestMaxRegretRatioBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := randomDataset(rng, 50, 3)
	ids := []int{0, 1, 2}
	r, witness, err := eval.MaxRegretRatio(d, ids, eval.Options{Samples: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r < 0 || r > 1 {
		t.Fatalf("ratio %v out of [0,1]", r)
	}
	at, err := eval.RegretRatio(d, witness, ids)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(at-r) > 1e-12 {
		t.Fatalf("witness ratio %v != reported %v", at, r)
	}
}

func TestMaxRegretRatioEmptySubset(t *testing.T) {
	d := paperfig.Figure1()
	if _, _, err := eval.MaxRegretRatio(d, nil, eval.Options{Samples: 10}); err == nil {
		t.Fatal("empty subset must error")
	}
}

func TestEstimateErrors(t *testing.T) {
	d := paperfig.Figure1()
	if _, _, err := eval.EstimateRankRegret(d, []int{42}, eval.Options{Samples: 10}); err == nil {
		t.Fatal("unknown ID must error")
	}
	if _, err := eval.RankRegretAt(d, core.NewLinearFunc(1, 1), []int{42}); err == nil {
		t.Fatal("unknown ID must error")
	}
	if _, err := eval.RegretRatio(d, core.NewLinearFunc(1, 1), []int{42}); err == nil {
		t.Fatal("unknown ID must error")
	}
}

func TestEstimateEmptySubsetWorstCase(t *testing.T) {
	d := paperfig.Figure1()
	rr, _, err := eval.EstimateRankRegret(d, nil, eval.Options{Samples: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rr != d.N()+1 {
		t.Fatalf("empty subset rank-regret = %d, want n+1", rr)
	}
}

func TestExact2DRankRegretDelegates(t *testing.T) {
	d := paperfig.Figure1()
	got, err := eval.ExactRankRegret2D(d, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.ExactRankRegret(d, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ExactRankRegret2D = %d, want %d", got, want)
	}
}

// TestWorkerInvariance: estimates are identical for any worker count
// (GOMAXPROCS).
func TestWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(71))
	d := randomDataset(rng, 200, 3)
	ids := []int{3, 17, 42}
	var wantRR int
	var wantWitness core.LinearFunc
	var wantRatio float64
	for i, workers := range []int{1, 2, 3, 8, 16} {
		runtime.GOMAXPROCS(workers)
		rr, witness, err := eval.EstimateRankRegret(d, ids, eval.Options{Samples: 777, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ratio, _, err := eval.MaxRegretRatio(d, ids, eval.Options{Samples: 777, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantRR, wantWitness, wantRatio = rr, witness, ratio
			continue
		}
		if rr != wantRR || ratio != wantRatio {
			t.Fatalf("workers=%d diverged: rr=%d ratio=%v, want %d, %v", workers, rr, ratio, wantRR, wantRatio)
		}
		if !reflect.DeepEqual(witness.W, wantWitness.W) {
			t.Fatalf("workers=%d witness diverged", workers)
		}
	}
}

func TestDefaultSamplesApplied(t *testing.T) {
	// Options with Samples <= 0 must still work (defaulting to 10k); use a
	// tiny dataset so the test stays fast.
	d := core.MustNewDataset([][]float64{{1, 0}, {0, 1}})
	rr, _, err := eval.EstimateRankRegret(d, []int{0}, eval.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rr < 1 || rr > 2 {
		t.Fatalf("rank-regret = %d", rr)
	}
}
