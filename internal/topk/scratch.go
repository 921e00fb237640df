package topk

import (
	"sort"

	"rrr/internal/core"
)

// Scratch is a reusable arena for top-k selection: the bounded min-heap and
// the output buffer. A warm Scratch makes repeated TopKScratch calls over
// same-sized queries allocation-free — the draw loop of kset.Sample issues
// thousands of them per solve.
//
// A Scratch serves one selection at a time; the []int returned by the
// *Scratch functions aliases the arena and is valid only until its next
// use. The zero value is ready to use.
type Scratch struct {
	h   []item
	out []int
}

// TopKScratch is TopK on a caller-owned arena. The returned IDs alias sc
// and are valid only until the Scratch's next use; a nil sc uses a
// temporary arena. Output order is identical to TopK for every input: the
// rank order is a strict total order (score, then ID), so the heap's pop
// sequence and Ranking's sort agree even when k >= n.
func TopKScratch(d *core.Dataset, f core.LinearFunc, k int, sc *Scratch) []int {
	n := d.N()
	if k <= 0 {
		return nil
	}
	if sc == nil {
		sc = new(Scratch)
	}
	if k > n {
		k = n
	}
	sc.h = scan(d, f, k, sc.h)
	if cap(sc.out) < k {
		sc.out = make([]int, k)
	}
	return pop(sc.h, sc.out[:k])
}

// TopKSetScratch is TopKSet on a caller-owned arena: the top-k IDs sorted
// ascending, aliasing sc.
func TopKSetScratch(d *core.Dataset, f core.LinearFunc, k int, sc *Scratch) []int {
	ids := TopKScratch(d, f, k, sc)
	sort.Ints(ids)
	return ids
}
