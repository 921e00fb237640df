package eval_test

import (
	"math/rand"
	"runtime"
	"testing"

	"rrr/internal/eval"
	"rrr/internal/paperfig"
)

func TestRankRegretDistributionQuantilesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := randomDataset(rng, 300, 3)
	ids := []int{1, 50, 200}
	dist, err := eval.RankRegretDistribution(d, ids, 20, eval.Options{Samples: 1500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Samples != 1500 {
		t.Fatalf("samples = %d", dist.Samples)
	}
	if !(dist.Min <= dist.Median && dist.Median <= dist.P90 &&
		dist.P90 <= dist.P95 && dist.P95 <= dist.P99 && dist.P99 <= dist.Max) {
		t.Fatalf("quantiles out of order: %+v", dist)
	}
	if dist.Mean < float64(dist.Min) || dist.Mean > float64(dist.Max) {
		t.Fatalf("mean %v outside [min, max]", dist.Mean)
	}
	if dist.WithinK < 0 || dist.WithinK > 1 {
		t.Fatalf("WithinK = %v", dist.WithinK)
	}
}

// The distribution's Max must equal the estimator's worst case for the
// same seed and sample count.
func TestRankRegretDistributionMaxMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	d := randomDataset(rng, 150, 3)
	ids := []int{3, 77}
	dist, err := eval.RankRegretDistribution(d, ids, 0, eval.Options{Samples: 800, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	worst, _, err := eval.EstimateRankRegret(d, ids, eval.Options{Samples: 800, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Max != worst {
		t.Fatalf("distribution max %d != estimator %d", dist.Max, worst)
	}
	if dist.WithinK != 0 {
		t.Fatalf("WithinK must be unset for k=0, got %v", dist.WithinK)
	}
}

func TestRankRegretDistributionWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(41))
	d := randomDataset(rng, 120, 3)
	base, err := eval.RankRegretDistribution(d, []int{5}, 10, eval.Options{Samples: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7, 16} {
		runtime.GOMAXPROCS(w)
		got, err := eval.RankRegretDistribution(d, []int{5}, 10, eval.Options{Samples: 500, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("workers=%d diverged: %+v vs %+v", w, got, base)
		}
	}
}

func TestRankRegretDistributionErrors(t *testing.T) {
	d := paperfig.Figure1()
	if _, err := eval.RankRegretDistribution(d, nil, 2, eval.Options{Samples: 10}); err == nil {
		t.Error("empty subset must error")
	}
	if _, err := eval.RankRegretDistribution(d, []int{42}, 2, eval.Options{Samples: 10}); err == nil {
		t.Error("unknown ID must error")
	}
}

// A perfect subset (containing the top tuple of every direction) is
// always within k = 1 wherever its hull covers; the paper dataset's
// {t3, t5, t7} hull yields rank 1 everywhere.
func TestRankRegretDistributionPerfectCover(t *testing.T) {
	d := paperfig.Figure1()
	dist, err := eval.RankRegretDistribution(d, []int{3, 5, 7}, 1, eval.Options{Samples: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Max != 1 || dist.WithinK != 1 {
		t.Fatalf("hull subset should be rank 1 everywhere: %+v", dist)
	}
}
