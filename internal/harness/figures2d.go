package harness

import (
	"context"
	"fmt"

	"rrr/internal/algo"
	"rrr/internal/core"
	"rrr/internal/kset"
	"rrr/internal/sweep"
)

// Figures 9–12: the 2-D experiments on the DOT dataset. The paper runs
// 2DRRR, MDRRR (with k-sets enumerated exactly by the ray sweep, as its §6
// notes for 2-D), and MDRC, measuring exact rank-regret via the sweep.

func twoDSizes(s Scale) []int {
	switch s {
	case ScaleSmoke:
		return []int{200, 500}
	case ScalePaper:
		return []int{1000, 10000, 100000, 400000}
	default:
		return []int{500, 2000, 8000}
	}
}

func twoDFixedN(s Scale) int {
	switch s {
	case ScaleSmoke:
		return 300
	case ScalePaper:
		return 10000
	default:
		return 4000
	}
}

func run2DVaryN(ctx context.Context, figID string, s Scale) (*Result, error) {
	res := &Result{Figure: figID, Title: "2D DOT, vary n, k = 1%", Scale: s}
	for _, n := range twoDSizes(s) {
		k := kFromFraction(n, 0.01)
		d, err := makeDataset(kindDOT, n, 2)
		if err != nil {
			return nil, err
		}
		rows, err := run2DPoint(ctx, d, k, fmt.Sprintf("n=%d", n))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

func run2DVaryK(ctx context.Context, figID string, s Scale) (*Result, error) {
	n := twoDFixedN(s)
	res := &Result{Figure: figID, Title: fmt.Sprintf("2D DOT, n = %d, vary k", n), Scale: s}
	d, err := makeDataset(kindDOT, n, 2)
	if err != nil {
		return nil, err
	}
	for _, frac := range []float64{0.002, 0.01, 0.1} {
		k := kFromFraction(n, frac)
		rows, err := run2DPoint(ctx, d, k, fmt.Sprintf("k=%g%%", frac*100))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// run2DPoint executes the three algorithms at one (dataset, k) setting.
// The exact rank-regret of all three outputs is graded in a single batched
// sweep at the end — one O(n²) pass instead of three.
func run2DPoint(ctx context.Context, d *core.Dataset, k int, x string) ([]Row, error) {
	// 2DRRR.
	var twoD *algo.Result
	secsTwoD, err := timed(func() error {
		var e error
		twoD, e = algo.TwoDRRR(ctx, d, k, algo.TwoDOptions{})
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("2DRRR at %s: %w", x, err)
	}

	// MDRRR over the exact 2-D k-set enumeration (sweep), as in the paper.
	var md *algo.Result
	secsMD, err := timed(func() error {
		sets, e := sweep.KSets(d, k)
		if e != nil {
			return e
		}
		col := kset.NewCollection()
		for _, set := range sets {
			col.Add(set)
		}
		md, e = algo.MDRRRFromSample(ctx, d, col, kset.SampleStats{}, nil, algo.MDRRROptions{})
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("MDRRR at %s: %w", x, err)
	}

	// MDRC.
	var mc *algo.Result
	secsMC, err := timed(func() error {
		var e error
		mc, e = algo.MDRC(ctx, d, k, algo.MDRCOptions{})
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("MDRC at %s: %w", x, err)
	}

	rrs, err := sweep.ExactRankRegretMulti(d, [][]int{twoD.IDs, md.IDs, mc.IDs})
	if err != nil {
		return nil, err
	}
	return []Row{
		{X: x, Alg: "2DRRR", K: k, Seconds: secsTwoD, Size: len(twoD.IDs), RankRegret: rrs[0]},
		{X: x, Alg: "MDRRR", K: k, Seconds: secsMD, Size: len(md.IDs), RankRegret: rrs[1],
			Extra: map[string]float64{"ksets": float64(md.Stats.KSets)}},
		{X: x, Alg: "MDRC", K: k, Seconds: secsMC, Size: len(mc.IDs), RankRegret: rrs[2],
			Extra: map[string]float64{"nodes": float64(mc.Stats.Nodes)}},
	}, nil
}
