package algo

import (
	"context"
	"errors"
	"fmt"

	"rrr/internal/core"
	"rrr/internal/cover"
	"rrr/internal/kset"
)

// HittingStrategy selects the hitting-set routine used by MDRRR.
type HittingStrategy int

const (
	// HitGreedy uses the classic ln(m) greedy hitting set. Deterministic
	// and, on the paper's workloads, close to optimal; the default.
	HitGreedy HittingStrategy = iota
	// HitEpsilonNet uses the Brönnimann–Goodrich ε-net weight-doubling
	// algorithm the paper cites for MDRRR's O(d·log(d·c)) ratio
	// (VC-dimension d, the number of attributes).
	HitEpsilonNet
)

// MDRRROptions configures MDRRR. The zero value samples the k-sets with
// K-SETr at the paper's termination setting (c = 100) and hits them
// greedily.
type MDRRROptions struct {
	// Sampler configures the K-SETr run.
	Sampler kset.SampleOptions
	// Strategy picks the hitting-set algorithm.
	Strategy HittingStrategy
	// BG configures the ε-net algorithm when Strategy == HitEpsilonNet.
	BG cover.BGOptions
	// OnProgress, if non-nil, receives the running stats periodically
	// from the K-SETr draw loop.
	OnProgress func(Stats)
}

// MDRRR runs the paper's hitting-set algorithm (Section 5.2, Algorithm 3):
// gather the collection of k-sets — the set of all possible top-k results
// (Lemma 5) — and return a smallest-found set of tuples intersecting every
// one of them. With the complete collection the output's rank-regret is
// exactly ≤ k; with the sampled collection the guarantee holds for every
// discovered k-set, and the missing ones occupy slivers of the function
// space that random functions virtually never hit (Section 5.2.1).
//
// MDRRR is kset.Sample followed by MDRRRFromSample; to hit a
// pre-enumerated collection (e.g. from kset.GraphEnumerate or
// sweep.KSets), call MDRRRFromSample with zero stats and a nil error.
// The context is checked periodically inside the K-SETr draw loop; a
// canceled or expired context — or an exhausted hard draw budget —
// returns an *Interrupted error carrying the draws and k-sets reached.
func MDRRR(ctx context.Context, d *core.Dataset, k int, opt MDRRROptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validate(d, k); err != nil {
		return nil, err
	}
	col, ss, err := kset.Sample(ctx, d, k, opt.SampleOptions())
	return MDRRRFromSample(ctx, d, col, ss, err, opt)
}

// SampleOptions returns the K-SETr options MDRRR samples with: Sampler,
// reporting its progress through OnProgress when that is set.
func (opt MDRRROptions) SampleOptions() kset.SampleOptions {
	sampler := opt.Sampler
	if fn := opt.OnProgress; fn != nil {
		sampler.OnProgress = func(ss kset.SampleStats) {
			fn(Stats{SamplerDraws: ss.Draws, KSets: ss.Distinct})
		}
	}
	return sampler
}

// MDRRRFromSample is MDRRR's tail, from one K-SETr outcome — the
// collection, stats and error of kset.Sample, or of one k of
// kset.SampleMulti — to a result. A hard draw budget's failure becomes an
// *Interrupted wrapping ErrBudget, a dead context an *Interrupted wrapping
// the context error, both carrying the draws and k-sets reached; any other
// sampler error passes through. The context is checked once more before
// the hitting set, which runs with opt.Strategy and opt.BG.
func MDRRRFromSample(ctx context.Context, d *core.Dataset, col *kset.Collection, ss kset.SampleStats, err error, opt MDRRROptions) (*Result, error) {
	stats := Stats{SamplerDraws: ss.Draws, SamplerTruncated: ss.Truncated, KSets: ss.Distinct}
	if err != nil {
		switch {
		case errors.Is(err, kset.ErrDrawBudget):
			return nil, &Interrupted{Stats: stats, Err: fmt.Errorf("%w: %v", ErrBudget, err)}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return nil, &Interrupted{Stats: stats, Err: err}
		}
		return nil, err
	}
	if col.Len() == 0 {
		return nil, errors.New("algo: empty k-set collection")
	}
	stats.KSets = col.Len()
	// One more check before the hitting set: sampling a large collection
	// may have consumed the whole deadline already.
	if err := ctx.Err(); err != nil {
		return nil, &Interrupted{Stats: stats, Err: err}
	}

	var ids []int
	switch opt.Strategy {
	case HitGreedy:
		ids, err = cover.GreedyHittingSet(col.Sets())
	case HitEpsilonNet:
		ids, err = cover.BGHittingSet(col.Sets(), d.Dims(), opt.BG)
	default:
		return nil, errors.New("algo: unknown hitting strategy")
	}
	if err != nil {
		return nil, err
	}
	return finish(ids, stats), nil
}
