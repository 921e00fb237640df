// Package topk is the scoring substrate of the RRR library: top-k selection
// under a linear ranking function, full rankings, and batch scoring. Every
// algorithm in the repository funnels its "what are the best k tuples for
// f?" questions through this package so that the deterministic tie-breaking
// rule of package core is applied uniformly.
package topk

import (
	"fmt"
	"sort"

	"rrr/internal/core"
)

// item pairs a tuple ID with its score for heap ordering.
type item struct {
	id    int
	score float64
}

// worse reports whether a ranks strictly worse than b (lower score, or equal
// score with the larger ID — the inverse of core.Outranks).
func worse(a, b item) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

// TopK returns the IDs of the k best tuples of d under f, in rank order
// (best first). When k >= n the full ranking is returned. k <= 0 yields nil.
//
// The selection keeps a bounded min-heap whose root is the worst retained
// tuple and scans the tuples by descending norm (see scan), stopping at
// the first tuple whose Cauchy–Schwarz bound cannot reach the root: at
// most O(n log k), and on most data it reads a fraction of the tuples.
// It allocates only the heap and the output.
func TopK(d *core.Dataset, f core.LinearFunc, k int) []int {
	n := d.N()
	if k <= 0 {
		return nil
	}
	if k >= n {
		return Ranking(d, f)
	}
	order, norms := d.ScanOrder()
	h, _ := scan(d.Tuples(), order, norms, f, k, make([]item, 0, k))
	return pop(h, make([]int, k))
}

// exitSlack is 1 + δ for d-term scores: δ = (4d + 8)·u, u = 2^-53. With
// every non-zero |w_i| and |t_i| in core.Norm's range nothing underflows
// or overflows, so rounding alone separates the computed values from the
// exact ones: a computed score is at most (1 + γ_d)·‖w‖·‖t‖, γ_d =
// d·u/(1 − d·u), and each computed norm is at least (1 − γ_d)(1 − u)
// times the exact one. The two roundings of the bound's products bring
// the computed bound to at least (1 + δ)(1 − γ_d)²(1 − u)⁴·‖w‖·‖t‖, which
// is ≥ (1 + γ_d)·‖w‖·‖t‖ whenever δ ≥ 3γ_d + 4u plus second-order terms;
// (4d + 8)·u covers that for every d below 2^40. 1 + δ is exact in
// float64.
func exitSlack(d int) float64 { return 1 + float64(4*d+8)*0x1p-53 }

// scan fills h (its capacity reused, 1 ≤ k ≤ len(order)) with the k best
// of the tuples at the positions of order under f, and returns it as a
// min-heap rooted at the worst of them, with the number of tuples it
// scored.
//
// It reads the tuples in order, by descending norm (Dataset.ScanOrder or
// Dataset.KSkyband), where norms[j] bounds the norm of every tuple from
// position j on. By Cauchy–Schwarz a
// tuple t scores at most ‖w‖·‖t‖, so once cut·norms[j] falls strictly
// below the root's score no tuple from position j on can enter the heap.
// The comparison must be strict: a tuple whose score equals the root's
// and whose ID is smaller still outranks the root. cut carries
// exitSlack, so rounding in the computed scores and norms cannot make
// the bound undercut a score. A weight outside core.Norm's range makes
// cut +Inf, and a tuple outside it has norm +Inf; either way the test
// never fires there.
func scan(tuples []core.Tuple, order []int32, norms []float64, f core.LinearFunc, k int, h []item) ([]item, int) {
	h = h[:0]
	for _, i := range order[:k] {
		t := tuples[i]
		h = append(h, item{id: t.ID, score: f.Score(t)})
		siftUp(h, len(h)-1)
	}
	cut := core.Norm(f.W) * exitSlack(len(f.W))
	root := h[0]
	norms = norms[:len(order)]
	j := k
	for ; j < len(order); j++ {
		if cut*norms[j] < root.score {
			break
		}
		t := &tuples[order[j]]
		it := item{id: t.ID, score: f.ScoreAttrs(t.Attrs)}
		if worse(it, root) {
			continue
		}
		h[0] = it
		siftDown(h, 0)
		root = h[0]
	}
	return h, j
}

// pop empties the heap into out (len(out) == len(h)) in rank order, best
// first, by repeatedly removing the worst, and returns out.
func pop(h []item, out []int) []int {
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h[0].id
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		if last > 0 {
			siftDown(h, 0)
		}
	}
	return out
}

func siftUp(h []item, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []item, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && worse(h[l], h[m]) {
			m = l
		}
		if r < n && worse(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// TopKSet returns the top-k IDs sorted ascending — the canonical form used
// for k-set identity comparisons (the set, not the ordering, is the k-set).
func TopKSet(d *core.Dataset, f core.LinearFunc, k int) []int {
	ids := TopK(d, f, k)
	sort.Ints(ids)
	return ids
}

// Ranking returns all tuple IDs of d in rank order under f (best first),
// in O(n log n).
func Ranking(d *core.Dataset, f core.LinearFunc) []int {
	n := d.N()
	items := make([]item, n)
	for i, t := range d.Tuples() {
		items[i] = item{id: t.ID, score: f.Score(t)}
	}
	sort.Slice(items, func(i, j int) bool { return worse(items[j], items[i]) })
	out := make([]int, n)
	for i, it := range items {
		out[i] = it.id
	}
	return out
}

// Scores computes the score of every tuple, indexed by slice position.
func Scores(d *core.Dataset, f core.LinearFunc) []float64 {
	out := make([]float64, d.N())
	for i, t := range d.Tuples() {
		out[i] = f.Score(t)
	}
	return out
}

// MaxScore returns the maximum score over the dataset and the ID of the
// top-ranked tuple (score tie broken by smaller ID, as everywhere).
func MaxScore(d *core.Dataset, f core.LinearFunc) (float64, int) {
	best := item{id: -1}
	first := true
	for _, t := range d.Tuples() {
		it := item{id: t.ID, score: f.Score(t)}
		if first || worse(best, it) {
			best = it
			first = false
		}
	}
	return best.score, best.id
}

// RankByScore computes the rank of a (score, id) pair: one plus the number
// of other tuples that outrank it, scoring strictly above score or equal
// to it with a smaller ID. It is the rank the best member of a subset
// would have, given the subset's best (score, id) pair.
func RankByScore(d *core.Dataset, f core.LinearFunc, score float64, id int) int {
	r := 1
	for _, t := range d.Tuples() {
		if t.ID == id {
			continue
		}
		s := f.Score(t)
		if s > score || (s == score && t.ID < id) {
			r++
		}
	}
	return r
}

// Validate checks that f can rank d, returning a descriptive error
// otherwise. Helpers in this package assume the caller validated once.
func Validate(d *core.Dataset, f core.LinearFunc) error {
	if err := f.Validate(d.Dims()); err != nil {
		return fmt.Errorf("topk: %w", err)
	}
	return nil
}
