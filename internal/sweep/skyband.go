package sweep

import (
	"rrr/internal/core"
	"rrr/internal/geom"
)

// skyband compacts order, which must be sorted by the initial-order rule
// (x1 desc, x2 desc, ID asc), in place to the tuples with fewer than k
// strict dominators — tuples beaten on both attributes by k others — and
// returns the survivors, still in initial order. band is the buffer of
// the pass's size-k min-heap; it is returned so the caller can keep its
// storage, and needs capacity k to run without allocating.
//
// Dropping the rest cannot change FindRanges' output. A strict dominator
// precedes the tuple it dominates in the initial order, and the sweep
// never swaps the two, since an exchange needs a strictly larger x2
// below. So a tuple with k dominators never reaches position k−1, and
// none of its exchanges touches the top-k boundary. Every dropped tuple
// also has k surviving dominators (the dominators of a maximal dropped
// one all survive), so whatever ties with it at some angle sits below k
// survivors there too: the exchanges at the boundary, their angles and
// their order are the same with or without it (DESIGN.md §3). Ties on
// either attribute never count as domination, which keeps the filter
// conservative on duplicates and shared coordinates.
//
// It is the sector pass (sectorBand) on the whole quadrant with no
// margin: the scores at 0 and π/2 are x1 and x2 exactly, and comparisons
// of the coordinates themselves need none. O(n log k).
func skyband(ts []core.Tuple, order []int, k int, band []float64) ([]int, []float64) {
	return sectorBand(ts, order, k, directionAt(0), directionAt(geom.HalfPi), 0, band)
}

// pushBand adds x to the min-heap h, which keeps only the k largest
// values: once h holds k of them, x replaces the minimum if it is larger.
func pushBand(h []float64, k int, x float64) []float64 {
	if len(h) < k {
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		return h
	}
	if x <= h[0] {
		return h
	}
	h[0] = x
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < k && h[l] < h[m] {
			m = l
		}
		if r < k && h[r] < h[m] {
			m = r
		}
		if m == i {
			return h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
