package sweep

import "rrr/internal/core"

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
// The pass walks the order once with the k largest x2 values seen so far
// in a min-heap. Each equal-x1 group is tested against the heap before any
// of its members are inserted, so only tuples with strictly greater x1
// are counted; a tuple is dropped when the heap is full and its minimum
// is above the tuple's x2. O(n log k).
func skyband(ts []core.Tuple, order []int, k int, band []float64) ([]int, []float64) {
	band = band[:0]
	w := 0
	for i := 0; i < len(order); {
		x1 := ts[order[i]].Attrs[0]
		j := i + 1
		for j < len(order) && ts[order[j]].Attrs[0] == x1 {
			j++
		}
		kept := w
		for _, li := range order[i:j] {
			if len(band) < k || band[0] <= ts[li].Attrs[1] {
				order[w] = li
				w++
			}
		}
		// Only survivors are inserted: a dropped member's x2 is below the
		// heap minimum, so inserting it would change nothing.
		for _, li := range order[kept:w] {
			band = pushBand(band, k, ts[li].Attrs[1])
		}
		i = j
	}
	return order[:w], band
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
