package eval

import (
	"math/rand"
	"runtime"

	"rrr/internal/core"
	"rrr/internal/geom"
	"rrr/internal/shard"
)

// The sampled estimators parallelize across CPU cores. Determinism is
// preserved for any GOMAXPROCS: the sample functions are generated
// sequentially from the seed up front, the samples are split into
// contiguous chunks that shard.FanOut runs concurrently, each chunk writes
// only its own slots, and every reduction runs over the slots in index
// order, so ties between equally bad samples resolve toward the smallest
// sample index.

// sampleFuncs draws the estimator's function set sequentially, every
// weight vector into one n·dims backing array.
func sampleFuncs(dims, n int, seed int64) []core.LinearFunc {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.LinearFunc, n)
	ws := make([]float64, n*dims)
	for i := range out {
		w := ws[i*dims : (i+1)*dims : (i+1)*dims]
		geom.RandomWeightInto(w, rng)
		out[i] = core.LinearFunc{W: w}
	}
	return out
}

// chunks is the number of chunks n samples are split into: GOMAXPROCS,
// or n when there are fewer samples.
func chunks(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// chunk returns the sample range [lo, hi) of chunk c when n samples are
// split into count contiguous chunks; none is empty when count ≤ n.
func chunk(c, n, count int) (lo, hi int) { return c * n / count, (c + 1) * n / count }

// worstSample measures every sampled function and returns the index and
// value of the worst (maximal) measurement, ties resolved to the smallest
// index; the index is -1 when there are no samples. It keeps one best per
// chunk, not one measurement per sample.
func worstSample(funcs []core.LinearFunc, measure func(core.LinearFunc) float64) (int, float64) {
	type best struct {
		idx int
		val float64
	}
	bests := make([]best, chunks(len(funcs)))
	shard.FanOut(len(bests), len(bests), func(c int) {
		lo, hi := chunk(c, len(funcs), len(bests))
		b := best{idx: lo, val: measure(funcs[lo])}
		for i := lo + 1; i < hi; i++ {
			if v := measure(funcs[i]); v > b.val {
				b = best{idx: i, val: v}
			}
		}
		bests[c] = b
	})
	// Chunks run in index order, so a strict > keeps the smallest index.
	worst := best{idx: -1}
	for _, b := range bests {
		if worst.idx < 0 || b.val > worst.val {
			worst = b
		}
	}
	return worst.idx, worst.val
}
