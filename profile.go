package rrr

import (
	"context"
	"errors"

	"rrr/internal/algo"
	"rrr/internal/sweep"
)

// ProfilePoint is one point of the k-vs-size trade-off frontier.
type ProfilePoint struct {
	// K is the rank-regret target.
	K int
	// Size is the representative size achieved for K.
	Size int
	// IDs is the representative itself.
	IDs []int
}

// Profile2D computes the size of the rank-regret representative for many
// values of k on a 2-D dataset, sharing a single angular sweep across all
// of them (Algorithm 1 watched at every requested boundary at once). It is
// the efficient way to answer "how does the guarantee trade against the
// list length?" — the question behind the paper's dual formulation.
//
// Covers use the provably minimal interval cover, so each point's size is
// within the Theorem 3 bound for its k, and each point's IDs are what
// Solve returns under WithOptimalCover.
func Profile2D(d *Dataset, ks []int) ([]ProfilePoint, error) {
	if d == nil {
		return nil, errors.New("rrr: nil dataset")
	}
	if len(ks) == 0 {
		return nil, errors.New("rrr: no k values")
	}
	rangesPerK, err := sweep.FindRangesMulti(context.Background(), d, ks, nil)
	if err != nil {
		return nil, err
	}
	out := make([]ProfilePoint, len(ks))
	for i, ranges := range rangesPerK {
		res, err := algo.TwoDRRRFromRanges(ranges, algo.TwoDOptions{Cover: algo.CoverOptimalSweep})
		if err != nil {
			return nil, err
		}
		out[i] = ProfilePoint{K: ks[i], Size: len(res.IDs), IDs: res.IDs}
	}
	return out, nil
}
