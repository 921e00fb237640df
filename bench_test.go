package rrr_test

// Benchmarks regenerating every evaluation figure of the RRR paper
// (Figures 9–28), plus micro-benchmarks of the core algorithm paths and
// ablation benches for the design choices called out in DESIGN.md §7.
//
// The figure benches run the harness at smoke scale so `go test -bench=.`
// finishes in minutes; `go run ./cmd/rrrexp -fig N -scale default` (or
// `-scale paper`) produces the full series recorded in EXPERIMENTS.md.
// Each figure bench reports the largest output size and rank-regret
// observed across its sweep as custom metrics, so the paper's
// effectiveness claims are visible straight from the bench output.

import (
	"context"
	"testing"

	"rrr"
	"rrr/internal/algo"
	"rrr/internal/cover"
	"rrr/internal/geom"
	"rrr/internal/harness"
	"rrr/internal/kset"
	"rrr/internal/lp"
	"rrr/internal/sweep"
	"rrr/internal/topk"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	f, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	var last *harness.Result
	for i := 0; i < b.N; i++ {
		res, err := f.Run(context.Background(), harness.ScaleSmoke)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	maxSize, maxRR := 0, 0
	for _, row := range last.Rows {
		if row.Size > maxSize {
			maxSize = row.Size
		}
		if row.RankRegret > maxRR {
			maxRR = row.RankRegret
		}
	}
	b.ReportMetric(float64(maxSize), "max_size")
	b.ReportMetric(float64(maxRR), "max_rankregret")
}

func BenchmarkFig09_2D_VaryN_Time(b *testing.B)        { benchFigure(b, "fig09") }
func BenchmarkFig10_2D_VaryN_Quality(b *testing.B)     { benchFigure(b, "fig10") }
func BenchmarkFig11_2D_VaryK_Time(b *testing.B)        { benchFigure(b, "fig11") }
func BenchmarkFig12_2D_VaryK_Quality(b *testing.B)     { benchFigure(b, "fig12") }
func BenchmarkFig13_KSetCount_DOT_VaryK(b *testing.B)  { benchFigure(b, "fig13") }
func BenchmarkFig14_KSetCount_DOT_VaryD(b *testing.B)  { benchFigure(b, "fig14") }
func BenchmarkFig15_KSetCount_BN_VaryK(b *testing.B)   { benchFigure(b, "fig15") }
func BenchmarkFig16_KSetCount_BN_VaryD(b *testing.B)   { benchFigure(b, "fig16") }
func BenchmarkFig17_MD_DOT_VaryN_Time(b *testing.B)    { benchFigure(b, "fig17") }
func BenchmarkFig18_MD_DOT_VaryN_Quality(b *testing.B) { benchFigure(b, "fig18") }
func BenchmarkFig19_MD_BN_VaryN_Time(b *testing.B)     { benchFigure(b, "fig19") }
func BenchmarkFig20_MD_BN_VaryN_Quality(b *testing.B)  { benchFigure(b, "fig20") }
func BenchmarkFig21_MD_DOT_VaryD_Time(b *testing.B)    { benchFigure(b, "fig21") }
func BenchmarkFig22_MD_DOT_VaryD_Quality(b *testing.B) { benchFigure(b, "fig22") }
func BenchmarkFig23_MD_BN_VaryD_Time(b *testing.B)     { benchFigure(b, "fig23") }
func BenchmarkFig24_MD_BN_VaryD_Quality(b *testing.B)  { benchFigure(b, "fig24") }
func BenchmarkFig25_MD_DOT_VaryK_Time(b *testing.B)    { benchFigure(b, "fig25") }
func BenchmarkFig26_MD_DOT_VaryK_Quality(b *testing.B) { benchFigure(b, "fig26") }
func BenchmarkFig27_MD_BN_VaryK_Time(b *testing.B)     { benchFigure(b, "fig27") }
func BenchmarkFig28_MD_BN_VaryK_Quality(b *testing.B)  { benchFigure(b, "fig28") }

// --- micro-benchmarks of the algorithmic substrate ------------------------

func benchDataset(b *testing.B, kind string, n, d int) *rrr.Dataset {
	b.Helper()
	ds, err := harness.MakeDataset(kind, n, d)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkSweepEvents(b *testing.B) {
	d := benchDataset(b, "dot", 2000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Sweep(d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindRanges(b *testing.B) {
	d := benchDataset(b, "dot", 2000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.FindRanges(context.Background(), d, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoDRRR(b *testing.B) {
	d := benchDataset(b, "dot", 2000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.TwoDRRR(context.Background(), d, 20, algo.TwoDOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDRC(b *testing.B) {
	d := benchDataset(b, "dot", 5000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.MDRC(context.Background(), d, 50, algo.MDRCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDRRRSampled(b *testing.B) {
	d := benchDataset(b, "bn", 1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := algo.MDRRR(context.Background(), d, 10, algo.MDRRROptions{
			Sampler: kset.SampleOptions{Termination: 50, MaxDraws: 20000, Seed: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopK(b *testing.B) {
	d := benchDataset(b, "dot", 10000, 4)
	f := rrr.NewLinearFunc(0.4, 0.3, 0.2, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.TopK(d, f, 100)
	}
}

func BenchmarkLPStrictSeparation(b *testing.B) {
	d := benchDataset(b, "bn", 200, 3)
	ids := topk.TopKSet(d, rrr.NewLinearFunc(1, 1, 1), 10)
	member := make(map[int]bool, len(ids))
	for _, id := range ids {
		member[id] = true
	}
	var in, out [][]float64
	for _, t := range d.Tuples() {
		if member[t.ID] {
			in = append(in, t.Attrs)
		} else {
			out = append(out, t.Attrs)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok, err := lp.StrictSeparation(in, out); err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkEstimateRankRegret(b *testing.B) {
	d := benchDataset(b, "dot", 5000, 3)
	res, err := algo.MDRC(context.Background(), d, 50, algo.MDRCOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rrr.EstimateRankRegret(d, res.IDs, rrr.EvalOptions{Samples: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- batch engine ----------------------------------------------------------

// batchKs is the acceptance workload: 8 distinct k values on a tier-1 2-D
// dataset. BenchmarkSolveBatch8K amortizes one sweep across all of them;
// BenchmarkSolveSequential8K pays for 8. The ratio is the headline number
// recorded in EXPERIMENTS.md §4.
var batchKs = []int{5, 10, 20, 35, 50, 75, 100, 150}

func BenchmarkSolveBatch8K(b *testing.B) {
	d := benchDataset(b, "dot", 2000, 2)
	solver := rrr.New()
	reqs := make([]rrr.Request, len(batchKs))
	for i, k := range batchKs {
		reqs[i] = rrr.Request{K: k}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := solver.SolveBatch(context.Background(), d, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if br.Stats.Sweeps != 1 {
			b.Fatalf("sweeps = %d, want 1", br.Stats.Sweeps)
		}
	}
}

func BenchmarkSolveSequential8K(b *testing.B) {
	d := benchDataset(b, "dot", 2000, 2)
	solver := rrr.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range batchKs {
			if _, err := solver.Solve(context.Background(), d, k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- sharded map-reduce engine ---------------------------------------------

// shardBenchCases are the acceptance workloads for the map-reduce engine:
// the 2-D path (where the map phase replaces one sweep with P parallel
// per-shard sweeps plus a reduce sweep over the pruned pool) and the MDRC
// path (where every corner top-k scan shrinks from n to the candidate
// pool). Sharded and sequential runs produce identical IDs — tested in
// shards_test.go — so the ratio of these benchmarks compares cost alone,
// recorded in EXPERIMENTS.md §5.
var shardBenchCases = []struct {
	name    string
	kind    string
	n, d, k int
}{
	{"2d", "dot", 8000, 2, 50},
	{"mdrc", "dot", 5000, 4, 50},
}

func BenchmarkShardedSolve(b *testing.B) {
	for _, tc := range shardBenchCases {
		b.Run(tc.name+"-p8", func(b *testing.B) {
			d := benchDataset(b, tc.kind, tc.n, tc.d)
			solver := rrr.New(rrr.WithShards(8))
			b.ResetTimer()
			var prune float64
			for i := 0; i < b.N; i++ {
				res, err := solver.Solve(context.Background(), d, tc.k)
				if err != nil {
					b.Fatal(err)
				}
				prune = res.PruneRatio
			}
			b.ReportMetric(prune*100, "prune_%")
		})
	}
}

func BenchmarkSequentialSolve(b *testing.B) {
	for _, tc := range shardBenchCases {
		b.Run(tc.name, func(b *testing.B) {
			d := benchDataset(b, tc.kind, tc.n, tc.d)
			solver := rrr.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.Solve(context.Background(), d, tc.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- delta engine ----------------------------------------------------------

// deltaBenchSetup builds the revalidation workload: a solved dataset plus
// a mutation whose inserts are deeply dominated (the still-exact case —
// the delta engine's steady state under churn that never touches the top
// of the order). BenchmarkDeltaRevalidate pays only the containment tests
// against the recorded pool; BenchmarkFullRecompute pays what the daemon
// paid before the delta engine existed: a fresh solve of the mutated
// table. Their ratio is the revalidation-vs-recompute number recorded in
// EXPERIMENTS.md §6.
func deltaBenchSetup(b *testing.B, kind string, n, dims, k int) (*rrr.Solver, rrr.Delta, *rrr.Result) {
	b.Helper()
	tb, err := rrr.GenerateTable(kind, n, dims, 1)
	if err != nil {
		b.Fatal(err)
	}
	mins, maxs, err := tb.Bounds()
	if err != nil {
		b.Fatal(err)
	}
	low := make([]float64, dims)
	for j := range low {
		low[j] = mins[j] + 0.05*(maxs[j]-mins[j])
	}
	next, _, err := tb.AppendRows([][]float64{low})
	if err != nil {
		b.Fatal(err)
	}
	before, err := tb.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	after, err := next.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	solver := rrr.New(rrr.WithDeltaMaintenance())
	prev, err := solver.Solve(context.Background(), before, k)
	if err != nil {
		b.Fatal(err)
	}
	return solver, rrr.DiffDatasets(before, after), prev
}

func BenchmarkDeltaRevalidate(b *testing.B) {
	solver, d, prev := deltaBenchSetup(b, "dot", 2000, 2, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev, err := solver.Revalidate(context.Background(), d, prev)
		if err != nil {
			b.Fatal(err)
		}
		if rev.Class != rrr.DeltaStillExact {
			b.Fatalf("class = %v, want still-exact", rev.Class)
		}
	}
}

func BenchmarkFullRecompute(b *testing.B) {
	solver, d, _ := deltaBenchSetup(b, "dot", 2000, 2, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(context.Background(), d.After, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md §7) ---------------------------------------

// BenchmarkAblationIntervalCover compares the paper's max-gain greedy with
// the provably minimal sweep cover on real Algorithm 1 ranges, reporting
// output sizes (the reproduction finding: max-gain can be +1).
func BenchmarkAblationIntervalCover(b *testing.B) {
	d := benchDataset(b, "dot", 2000, 2)
	ranges, err := sweep.FindRanges(context.Background(), d, 20)
	if err != nil {
		b.Fatal(err)
	}
	intervals := make([]cover.Interval, 0, len(ranges))
	for _, r := range ranges {
		intervals = append(intervals, cover.Interval{ID: r.ID, Lo: r.Lo, Hi: r.Hi})
	}
	b.Run("maxgain", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			ids, err := cover.CoverMaxGain(intervals, 0, geom.HalfPi)
			if err != nil {
				b.Fatal(err)
			}
			size = len(ids)
		}
		b.ReportMetric(float64(size), "size")
	})
	b.Run("optimal", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			ids, err := cover.CoverOptimal(intervals, 0, geom.HalfPi)
			if err != nil {
				b.Fatal(err)
			}
			size = len(ids)
		}
		b.ReportMetric(float64(size), "size")
	})
}

// BenchmarkAblationHittingSet compares greedy vs Brönnimann–Goodrich on a
// sampled k-set collection.
func BenchmarkAblationHittingSet(b *testing.B) {
	d := benchDataset(b, "bn", 1000, 3)
	col, _, err := kset.Sample(context.Background(), d, 10, kset.SampleOptions{Termination: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			ids, err := cover.GreedyHittingSet(col.Sets())
			if err != nil {
				b.Fatal(err)
			}
			size = len(ids)
		}
		b.ReportMetric(float64(size), "size")
	})
	b.Run("epsilon-net", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			ids, err := cover.BGHittingSet(col.Sets(), 3, cover.BGOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			size = len(ids)
		}
		b.ReportMetric(float64(size), "size")
	})
}

// BenchmarkAblationMDRCPick compares the paper's first-common-item pick
// against the min-max-rank refinement.
func BenchmarkAblationMDRCPick(b *testing.B) {
	d := benchDataset(b, "dot", 3000, 4)
	for name, pick := range map[string]algo.PickStrategy{
		"first": algo.PickFirst, "minmaxrank": algo.PickMinMaxRank,
	} {
		b.Run(name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				res, err := algo.MDRC(context.Background(), d, 30, algo.MDRCOptions{Pick: pick})
				if err != nil {
					b.Fatal(err)
				}
				size = len(res.IDs)
			}
			b.ReportMetric(float64(size), "size")
		})
	}
}

// BenchmarkAblationMDRCMemo measures the corner top-k cache's effect.
func BenchmarkAblationMDRCMemo(b *testing.B) {
	d := benchDataset(b, "dot", 3000, 4)
	for name, disable := range map[string]bool{"memo": false, "nomemo": true} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.MDRC(context.Background(), d, 30, algo.MDRCOptions{DisableMemo: disable}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKSetTermination sweeps K-SETr's consecutive-miss stop
// rule, reporting how many k-sets each setting discovers.
func BenchmarkAblationKSetTermination(b *testing.B) {
	d := benchDataset(b, "bn", 1000, 3)
	for _, c := range []int{10, 100, 1000} {
		c := c
		b.Run(map[int]string{10: "c10", 100: "c100", 1000: "c1000"}[c], func(b *testing.B) {
			var found int
			for i := 0; i < b.N; i++ {
				col, _, err := kset.Sample(context.Background(), d, 10, kset.SampleOptions{Termination: c, MaxDraws: 100000, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				found = col.Len()
			}
			b.ReportMetric(float64(found), "ksets")
		})
	}
}
