package eval

import (
	"errors"
	"sort"

	"rrr/internal/core"
	"rrr/internal/shard"
)

// Distribution summarizes how a subset's rank-regret is distributed over
// the sampled function space — the worst case (which the guarantees bound)
// plus the quantiles a product owner actually reasons about ("95% of users
// get a top-20 item").
type Distribution struct {
	// Samples is the number of functions measured.
	Samples int
	// Min, Median, P90, P95, P99, Max are rank-regret quantiles.
	Min, Median, P90, P95, P99, Max int
	// Mean is the average rank-regret.
	Mean float64
	// WithinK is the fraction of sampled functions whose rank-regret is
	// at most K (only set when a positive K was passed).
	WithinK float64
}

// RankRegretDistribution samples ranking functions uniformly and returns
// the full quantile picture of the subset's rank-regret. k (optional,
// pass 0 to skip) additionally reports the fraction of functions already
// served within the target.
func RankRegretDistribution(d *core.Dataset, ids []int, k int, opt Options) (Distribution, error) {
	subset, err := subsetTuples(d, ids)
	if err != nil {
		return Distribution{}, err
	}
	if len(subset) == 0 {
		return Distribution{}, errors.New("eval: empty subset")
	}
	funcs := sampleFuncs(d.Dims(), opt.samples(), opt.Seed)
	sorted := make([]int, len(funcs))
	count := chunks(len(funcs))
	shard.FanOut(count, count, func(c int) {
		lo, hi := chunk(c, len(funcs), count)
		for i := lo; i < hi; i++ {
			sorted[i] = rankRegretFor(d, funcs[i], subset)
		}
	})
	sort.Ints(sorted)
	n := len(sorted)
	quantile := func(q float64) int {
		i := int(q * float64(n-1))
		return sorted[i]
	}
	var sum float64
	within := 0
	for _, r := range sorted {
		sum += float64(r)
		if k > 0 && r <= k {
			within++
		}
	}
	dist := Distribution{
		Samples: n,
		Min:     sorted[0],
		Median:  quantile(0.5),
		P90:     quantile(0.9),
		P95:     quantile(0.95),
		P99:     quantile(0.99),
		Max:     sorted[n-1],
		Mean:    sum / float64(n),
	}
	if k > 0 {
		dist.WithinK = float64(within) / float64(n)
	}
	return dist, nil
}
