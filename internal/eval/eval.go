// Package eval measures the quality of candidate representatives: the
// rank-regret of a subset (Definitions 1–2 of the RRR paper) and the
// regret-ratio used by the score-based baselines.
//
// Computing the exact rank-regret in general dimension requires the full
// arrangement of dual hyperplanes, which the paper notes "is not scalable
// to the large settings" (Section 6.1); like the paper, this package
// estimates it by sampling ranking functions uniformly at random (10,000 by
// default, the paper's setting) and keeping the worst. In 2-D the sweep
// provides exact ground truth.
package eval

import (
	"errors"
	"fmt"

	"rrr/internal/core"
	"rrr/internal/sweep"
)

// DefaultSamples is the number of ranking functions the estimators draw
// when Options.Samples is zero — 10,000, the paper's Section 6.1 setting.
const DefaultSamples = 10000

// Options configures the sampled estimators. The estimators measure their
// samples on up to GOMAXPROCS goroutines; results are identical for any
// GOMAXPROCS.
type Options struct {
	// Samples is the number of ranking functions drawn uniformly from the
	// positive orthant of the unit hypersphere. Default DefaultSamples.
	Samples int
	// Seed drives the sampler; fixed seeds give reproducible estimates.
	Seed int64
}

func (o Options) samples() int {
	if o.Samples <= 0 {
		return DefaultSamples
	}
	return o.Samples
}

// subsetTuples resolves IDs once for the estimators.
func subsetTuples(d *core.Dataset, ids []int) ([]core.Tuple, error) {
	out := make([]core.Tuple, 0, len(ids))
	for _, id := range ids {
		t, ok := d.ByID(id)
		if !ok {
			return nil, fmt.Errorf("eval: unknown tuple ID %d", id)
		}
		out = append(out, t)
	}
	return out, nil
}

// rankRegretFor computes RR_f(X) given the resolved subset.
func rankRegretFor(d *core.Dataset, f core.LinearFunc, subset []core.Tuple) int {
	if len(subset) == 0 {
		return d.N() + 1
	}
	best := subset[0]
	bestScore := f.Score(best)
	for _, t := range subset[1:] {
		s := f.Score(t)
		if s > bestScore || (s == bestScore && t.ID < best.ID) {
			best = t
			bestScore = s
		}
	}
	rank := 1
	for _, t := range d.Tuples() {
		if t.ID == best.ID {
			continue
		}
		s := f.Score(t)
		if s > bestScore || (s == bestScore && t.ID < best.ID) {
			rank++
		}
	}
	return rank
}

// EstimateRankRegret estimates RR_L(X) — the maximum over linear ranking
// functions of the subset's rank-regret — by uniform sampling, returning
// the worst rank observed and a function witnessing it.
func EstimateRankRegret(d *core.Dataset, ids []int, opt Options) (int, core.LinearFunc, error) {
	subset, err := subsetTuples(d, ids)
	if err != nil {
		return 0, core.LinearFunc{}, err
	}
	funcs := sampleFuncs(d.Dims(), opt.samples(), opt.Seed)
	idx, worst := worstSample(funcs, func(f core.LinearFunc) float64 {
		return float64(rankRegretFor(d, f, subset))
	})
	if idx < 0 {
		return 0, core.LinearFunc{}, errors.New("eval: no samples")
	}
	return int(worst), funcs[idx], nil
}

// ExactRankRegret2D computes the exact rank-regret of the subset on a 2-D
// dataset via the angular sweep. It is the ground truth the 2-D experiments
// report.
func ExactRankRegret2D(d *core.Dataset, ids []int) (int, error) {
	return sweep.ExactRankRegret(d, ids)
}

// RankRegretAt evaluates RR_f(X) for one explicit function.
func RankRegretAt(d *core.Dataset, f core.LinearFunc, ids []int) (int, error) {
	subset, err := subsetTuples(d, ids)
	if err != nil {
		return 0, err
	}
	return rankRegretFor(d, f, subset), nil
}

// RegretRatio computes the score-based regret of X for f used by the
// regret-ratio literature the paper compares against: (mo − ma)/mo where mo
// is the dataset's best score and ma the subset's best score. When mo ≤ 0
// (possible only for degenerate all-zero data) the ratio is defined as 0.
func RegretRatio(d *core.Dataset, f core.LinearFunc, ids []int) (float64, error) {
	subset, err := subsetTuples(d, ids)
	if err != nil {
		return 0, err
	}
	if len(subset) == 0 {
		return 1, nil
	}
	var mo float64
	first := true
	for _, t := range d.Tuples() {
		s := f.Score(t)
		if first || s > mo {
			mo = s
			first = false
		}
	}
	var ma float64
	for i, t := range subset {
		s := f.Score(t)
		if i == 0 || s > ma {
			ma = s
		}
	}
	if mo <= 0 {
		return 0, nil
	}
	r := (mo - ma) / mo
	if r < 0 {
		r = 0
	}
	return r, nil
}

// MaxRegretRatio estimates the maximum regret-ratio of the subset over the
// linear function space by uniform sampling, returning the worst ratio and
// a witnessing function.
func MaxRegretRatio(d *core.Dataset, ids []int, opt Options) (float64, core.LinearFunc, error) {
	subset, err := subsetTuples(d, ids)
	if err != nil {
		return 0, core.LinearFunc{}, err
	}
	if len(subset) == 0 {
		return 1, core.LinearFunc{}, errors.New("eval: empty subset")
	}
	funcs := sampleFuncs(d.Dims(), opt.samples(), opt.Seed)
	idx, worst := worstSample(funcs, func(f core.LinearFunc) float64 {
		r, _ := regretRatioFor(d, f, subset)
		return r
	})
	if idx < 0 {
		return 0, core.LinearFunc{}, errors.New("eval: no samples")
	}
	return worst, funcs[idx], nil
}

func regretRatioFor(d *core.Dataset, f core.LinearFunc, subset []core.Tuple) (float64, error) {
	var mo float64
	first := true
	for _, t := range d.Tuples() {
		s := f.Score(t)
		if first || s > mo {
			mo = s
			first = false
		}
	}
	var ma float64
	for i, t := range subset {
		s := f.Score(t)
		if i == 0 || s > ma {
			ma = s
		}
	}
	if mo <= 0 {
		return 0, nil
	}
	r := (mo - ma) / mo
	if r < 0 {
		r = 0
	}
	return r, nil
}
