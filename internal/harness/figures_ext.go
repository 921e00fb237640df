package harness

import (
	"context"
	"fmt"

	"rrr/internal/algo"
	"rrr/internal/cover"
	"rrr/internal/dataset"
	"rrr/internal/eval"
	"rrr/internal/geom"
	"rrr/internal/kset"
	"rrr/internal/skyline"
	"rrr/internal/sweep"
)

// Extensions returns experiments beyond the paper's evaluation: the
// distribution study (the skyline literature's independent / correlated /
// anti-correlated families the paper does not sweep) and the runnable
// ablations called out in DESIGN.md §7.
func Extensions() []Figure {
	return []Figure{
		{ID: "ext01", Title: "Distribution study: algorithms across ind/corr/anti (d=3, k=1%)", Run: runExtDistributions},
		{ID: "ext02", Title: "Representation sizes: skyline vs k-RRR as k grows", Run: runExtSkylineFrontier},
		{ID: "abl01", Title: "Ablation: interval cover — paper max-gain vs optimal sweep", Run: runAblCover},
		{ID: "abl02", Title: "Ablation: hitting set — greedy vs Brönnimann–Goodrich ε-net", Run: runAblHitting},
		{ID: "abl03", Title: "Ablation: MDRC pick rule — first common vs min-max-rank", Run: runAblPick},
		{ID: "abl04", Title: "Ablation: MDRC corner top-k memoization on/off", Run: runAblMemo},
		{ID: "abl05", Title: "Ablation: K-SETr termination threshold c", Run: runAblTermination},
	}
}

func extN(s Scale) int {
	switch s {
	case ScaleSmoke:
		return 400
	case ScalePaper:
		return 10000
	default:
		return 3000
	}
}

// runExtDistributions runs the MD algorithm suite on the three synthetic
// families. Skylines grow anti > ind > corr; the representatives must stay
// small and within k on all three.
func runExtDistributions(ctx context.Context, s Scale) (*Result, error) {
	n := extN(s)
	res := &Result{Figure: "ext01", Title: fmt.Sprintf("distribution study, n = %d, d = 3, k = 1%%", n), Scale: s}
	k := kFromFraction(n, 0.01)
	gens := []struct {
		name string
		gen  func(n, d int, seed int64) *dataset.Table
	}{
		{"independent", dataset.Independent},
		{"correlated", dataset.Correlated},
		{"anticorrelated", dataset.AntiCorrelated},
	}
	for _, g := range gens {
		d, err := g.gen(n, 3, 21).Normalize()
		if err != nil {
			return nil, err
		}
		rows, err := runMDPoint(ctx, d, k, g.name, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
		sky := len(skyline.Skyline(d))
		for i := range rows {
			if rows[i].Extra == nil {
				rows[i].Extra = map[string]float64{}
			}
			rows[i].Extra["skyline"] = float64(sky)
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// runExtSkylineFrontier sweeps k and compares the k-RRR size (MDRC)
// against the constant-size maxima representations.
func runExtSkylineFrontier(ctx context.Context, s Scale) (*Result, error) {
	n := extN(s)
	res := &Result{Figure: "ext02", Title: fmt.Sprintf("size frontier, DOT-like, n = %d, d = 3", n), Scale: s}
	d, err := makeDataset(kindDOT, n, 3)
	if err != nil {
		return nil, err
	}
	sky := skyline.Skyline(d)
	for _, frac := range []float64{0.002, 0.01, 0.05, 0.1} {
		k := kFromFraction(n, frac)
		var mc *algo.Result
		secs, err := timed(func() error {
			var e error
			mc, e = algo.MDRC(ctx, d, k, algo.MDRCOptions{})
			return e
		})
		if err != nil {
			return nil, err
		}
		rr, _, err := eval.EstimateRankRegret(d, mc.IDs, evalOptions(s))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			X: fmt.Sprintf("k=%g%%", frac*100), Alg: "MDRC", K: k,
			Seconds: secs, Size: len(mc.IDs), RankRegret: rr,
			Extra: map[string]float64{"skyline": float64(len(sky))},
		})
	}
	return res, nil
}

// runAblCover compares the two interval-cover strategies on real
// Algorithm 1 ranges.
func runAblCover(ctx context.Context, s Scale) (*Result, error) {
	n := extN(s)
	res := &Result{Figure: "abl01", Title: fmt.Sprintf("interval cover on DOT 2-D ranges, n = %d", n), Scale: s}
	d, err := makeDataset(kindDOT, n, 2)
	if err != nil {
		return nil, err
	}
	for _, frac := range []float64{0.002, 0.01, 0.1} {
		k := kFromFraction(n, frac)
		ranges, err := sweep.FindRangesScratch(ctx, d, k, nil)
		if err != nil {
			return nil, err
		}
		intervals := make([]cover.Interval, 0, len(ranges))
		for _, r := range ranges {
			intervals = append(intervals, cover.Interval{ID: r.ID, Lo: r.Lo, Hi: r.Hi})
		}
		type strat struct {
			name string
			run  func([]cover.Interval, float64, float64) ([]int, error)
		}
		for _, st := range []strat{{"max-gain", cover.CoverMaxGain}, {"optimal", cover.CoverOptimal}} {
			var ids []int
			secs, err := timed(func() error {
				var e error
				ids, e = st.run(intervals, 0, geom.HalfPi)
				return e
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Row{
				X: fmt.Sprintf("k=%g%%", frac*100), Alg: st.name, K: k,
				Seconds: secs, Size: len(ids), RankRegret: -1,
			})
		}
	}
	return res, nil
}

// runAblHitting compares greedy and ε-net hitting sets over one sampled
// k-set collection per k.
func runAblHitting(ctx context.Context, s Scale) (*Result, error) {
	n := extN(s)
	res := &Result{Figure: "abl02", Title: fmt.Sprintf("hitting set on BN k-sets, n = %d, d = 3", n), Scale: s}
	d, err := makeDataset(kindBN, n, 3)
	if err != nil {
		return nil, err
	}
	for _, frac := range []float64{0.002, 0.01} {
		k := kFromFraction(n, frac)
		col, _, err := kset.Sample(ctx, d, k, samplerOptions(s))
		if err != nil {
			return nil, err
		}
		var greedyIDs []int
		secs, err := timed(func() error {
			var e error
			greedyIDs, e = cover.GreedyHittingSet(col.Sets())
			return e
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			X: fmt.Sprintf("k=%g%%", frac*100), Alg: "greedy", K: k,
			Seconds: secs, Size: len(greedyIDs), RankRegret: -1,
			Extra: map[string]float64{"ksets": float64(col.Len())},
		})
		var bgIDs []int
		secs, err = timed(func() error {
			var e error
			bgIDs, e = cover.BGHittingSet(col.Sets(), 3, cover.BGOptions{Seed: 23})
			return e
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			X: fmt.Sprintf("k=%g%%", frac*100), Alg: "epsilon-net", K: k,
			Seconds: secs, Size: len(bgIDs), RankRegret: -1,
			Extra: map[string]float64{"ksets": float64(col.Len())},
		})
	}
	return res, nil
}

// runAblPick compares MDRC's two representative-pick rules.
func runAblPick(ctx context.Context, s Scale) (*Result, error) {
	n := extN(s)
	res := &Result{Figure: "abl03", Title: fmt.Sprintf("MDRC pick rule, DOT, n = %d, d = 4", n), Scale: s}
	d, err := makeDataset(kindDOT, n, 4)
	if err != nil {
		return nil, err
	}
	k := kFromFraction(n, 0.01)
	picks := []struct {
		name string
		pick algo.PickStrategy
	}{{"first-common", algo.PickFirst}, {"min-max-rank", algo.PickMinMaxRank}}
	for _, p := range picks {
		var mc *algo.Result
		secs, err := timed(func() error {
			var e error
			mc, e = algo.MDRC(ctx, d, k, algo.MDRCOptions{Pick: p.pick})
			return e
		})
		if err != nil {
			return nil, err
		}
		rr, _, err := eval.EstimateRankRegret(d, mc.IDs, evalOptions(s))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			X: "d=4", Alg: p.name, K: k, Seconds: secs, Size: len(mc.IDs), RankRegret: rr,
			Extra: map[string]float64{"nodes": float64(mc.Stats.Nodes)},
		})
	}
	return res, nil
}

// runAblMemo measures the corner top-k cache's effect on MDRC.
func runAblMemo(ctx context.Context, s Scale) (*Result, error) {
	n := extN(s)
	res := &Result{Figure: "abl04", Title: fmt.Sprintf("MDRC memoization, DOT, n = %d, d = 4", n), Scale: s}
	d, err := makeDataset(kindDOT, n, 4)
	if err != nil {
		return nil, err
	}
	k := kFromFraction(n, 0.01)
	for _, disable := range []bool{false, true} {
		name := "memoized"
		if disable {
			name = "no-memo"
		}
		var mc *algo.Result
		secs, err := timed(func() error {
			var e error
			mc, e = algo.MDRC(ctx, d, k, algo.MDRCOptions{DisableMemo: disable})
			return e
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			X: "d=4", Alg: name, K: k, Seconds: secs, Size: len(mc.IDs), RankRegret: -1,
			Extra: map[string]float64{
				"topk_queries": float64(mc.Stats.TopKQueries),
				"cache_hits":   float64(mc.Stats.CacheHits),
			},
		})
	}
	return res, nil
}

// runAblTermination sweeps K-SETr's consecutive-miss threshold.
func runAblTermination(ctx context.Context, s Scale) (*Result, error) {
	n := extN(s)
	res := &Result{Figure: "abl05", Title: fmt.Sprintf("K-SETr termination, BN, n = %d, d = 3, k = 1%%", n), Scale: s}
	d, err := makeDataset(kindBN, n, 3)
	if err != nil {
		return nil, err
	}
	k := kFromFraction(n, 0.01)
	cs := []int{10, 100, 1000}
	if s == ScaleSmoke {
		cs = []int{10, 50}
	}
	for _, c := range cs {
		var col *kset.Collection
		var stats kset.SampleStats
		secs, err := timed(func() error {
			var e error
			col, stats, e = kset.Sample(ctx, d, k, kset.SampleOptions{Termination: c, MaxDraws: 200_000, Seed: 11})
			return e
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			X: fmt.Sprintf("c=%d", c), Alg: "K-SETr", K: k,
			Seconds: secs, Size: col.Len(), RankRegret: -1,
			Extra: map[string]float64{"draws": float64(stats.Draws)},
		})
	}
	return res, nil
}
