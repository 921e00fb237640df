package algo

import (
	"context"
	"errors"
	"slices"

	"rrr/internal/core"
	"rrr/internal/cover"
	"rrr/internal/geom"
	"rrr/internal/sweep"
)

// CoverStrategy selects the interval-cover routine used by TwoDRRR.
type CoverStrategy int

const (
	// CoverMaxGain is the paper's Algorithm 2: pick the range covering the
	// most uncovered space each iteration. This is the default and
	// reproduces the paper's worked example ({t3, t1} on Figure 1).
	// Reproduction note: contrary to the paper's optimality claim, this
	// greedy can exceed the minimum cover by one on rare range
	// configurations (see package cover); use CoverOptimalSweep when the
	// Theorem 3 size guarantee must hold unconditionally.
	CoverMaxGain CoverStrategy = iota
	// CoverOptimalSweep is the classic left-to-right segment cover, which
	// is provably minimal and therefore the variant for which Theorem 3
	// (output ≤ optimal RRR size) holds unconditionally.
	CoverOptimalSweep
)

// TwoDOptions configures TwoDRRR. The zero value reproduces the paper.
type TwoDOptions struct {
	Cover CoverStrategy
	// OnProgress, if non-nil, is invoked with the running stats once the
	// sweep has produced its ranges (the sweep dominates the cost; the
	// cover phase is near-instant).
	OnProgress func(Stats)
}

// TwoDRRR runs the paper's 2-D algorithm (Section 4): FindRanges (Algorithm
// 1) followed by one-dimensional range cover (Algorithm 2). The output size
// is at most the optimal RRR size (Theorem 3) and its rank-regret is at
// most 2k (Theorem 4); in the paper's experiments — and in this
// repository's — it achieves ≤ k on real-like data. It is TwoDRRRScratch
// on a temporary arena.
//
// The context is checked periodically inside the angular sweep; a canceled
// or expired context returns an *Interrupted error.
func TwoDRRR(ctx context.Context, d *core.Dataset, k int, opt TwoDOptions) (*Result, error) {
	ids, stats, err := TwoDRRRScratch(ctx, d, k, opt, nil)
	if err != nil {
		return nil, err
	}
	return &Result{IDs: ids, Stats: stats}, nil
}

// TwoDScratch is the reusable arena of the allocation-free 2-D solve path:
// the sweep's event/state arena, the cover's segment buffers, and the
// interval slice gluing them together. One TwoDScratch serves one solve at
// a time; rrr.Solver keeps a pool of them so concurrent solves each check
// out their own.
type TwoDScratch struct {
	Sweep     sweep.Scratch
	Cover     cover.Scratch
	intervals []cover.Interval
}

// TwoDRRRScratch is TwoDRRR on a caller-owned arena: every per-solve
// structure lives in sc, so a warm arena solves with zero allocations.
// The returned IDs alias sc and are valid only until the arena's next use;
// callers that keep the result must copy. A nil sc uses a temporary arena.
func TwoDRRRScratch(ctx context.Context, d *core.Dataset, k int, opt TwoDOptions, sc *TwoDScratch) ([]int, Stats, error) {
	if sc == nil {
		sc = new(TwoDScratch)
	}
	if err := validate(d, k); err != nil {
		return nil, Stats{}, err
	}
	if d.Dims() != 2 {
		return nil, Stats{}, errors.New("algo: TwoDRRR requires a 2-D dataset; use MDRRR or MDRC otherwise")
	}
	ranges, err := sweep.FindRangesScratch(ctx, d, k, &sc.Sweep)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, Stats{}, &Interrupted{Err: err}
		}
		return nil, Stats{}, err
	}
	return sc.cover(ranges, opt)
}

// TwoDRRRFromRanges runs the cover phase of the 2-D algorithm on
// precomputed Algorithm 1 ranges, on a temporary arena. The batch engine
// and Profile2D call it on the slices of one sweep.FindRangesMulti pass,
// which equal per-k FindRangesScratch results, so the answers are
// TwoDRRRScratch's.
func TwoDRRRFromRanges(ranges []sweep.Range, opt TwoDOptions) (*Result, error) {
	var sc TwoDScratch
	ids, stats, err := sc.cover(ranges, opt)
	if err != nil {
		return nil, err
	}
	return &Result{IDs: ids, Stats: stats}, nil
}

// cover is the one cover tail of every 2-D solve: it turns Algorithm 1's
// ranges into intervals, reports progress, and covers [0, π/2] with the
// selected strategy. The IDs come back sorted and deduplicated, aliasing
// sc.
func (sc *TwoDScratch) cover(ranges []sweep.Range, opt TwoDOptions) ([]int, Stats, error) {
	sc.intervals = slices.Grow(sc.intervals[:0], len(ranges))
	for _, r := range ranges {
		sc.intervals = append(sc.intervals, cover.Interval{ID: r.ID, Lo: r.Lo, Hi: r.Hi})
	}
	stats := Stats{Ranges: len(sc.intervals)}
	if opt.OnProgress != nil {
		opt.OnProgress(stats)
	}
	var (
		ids []int
		err error
	)
	switch opt.Cover {
	case CoverMaxGain:
		ids, err = cover.CoverMaxGainScratch(sc.intervals, 0, geom.HalfPi, &sc.Cover)
	case CoverOptimalSweep:
		ids, err = cover.CoverOptimalScratch(sc.intervals, 0, geom.HalfPi, &sc.Cover)
	default:
		return nil, Stats{}, errors.New("algo: unknown cover strategy")
	}
	if err != nil {
		return nil, Stats{}, err
	}
	return finishInPlace(ids), stats, nil
}
