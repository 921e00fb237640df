package sweep

import (
	"math"
	"slices"

	"rrr/internal/core"
	"rrr/internal/geom"
)

// Sector bisection (DESIGN.md §3). FindRangesScratch and FindRangesMulti
// split [0, π/2] into angular sectors and sweep each sector on its own
// band: the tuples that fewer than k others beat at both of the sector's
// end angles. A tuple beaten by k others at both ends of a sector is
// beaten by them at every angle in between (a score difference is a
// sinusoid and a sector is shorter than π), so it never reaches the top-k
// there. A split angle m is taken only where the loop's state is known
// exactly: the band sorted by score at m must order every adjacent pair
// the way the loop's own event keys say it has after every key below m,
// with no key within splitSlack of m. Each leaf is then swept from that
// order with the one event loop, up to its right end.

const (
	// splitSlack is δ, in radians: a split angle is refused when an
	// adjacent pair of the sorted band has its event key within δ of it.
	// Keys differ from the exact crossing angles by a few units in the
	// last place, so δ leaves them orders of magnitude of room.
	splitSlack = 1e-9
	// maxSectorDepth caps the bisection. A band can stop shrinking: one
	// holding a crossing of its top tuples keeps them on the side of every
	// split that contains it, and a band of exact duplicates never shrinks
	// (BN-like 2-D data holds 46 copies of one point). The cap also bounds
	// the band buffers the arena keeps: two per depth.
	maxSectorDepth = 12
	// minSplitBand is the smallest band the rule splits. A sweep of fewer
	// tuples applies a few dozen exchanges at most, about what a split's
	// sort, check and two band passes cost; without the floor, a k = 1
	// band of two tuples that cross inside it is bisected down to the
	// depth cap.
	minSplitBand = 8
)

// splittable is the bisection rule: a sector is split while its band
// holds more than 3k/2 tuples, and at least minSplitBand. It reads only
// the band's size and k.
func splittable(band, k int) bool { return 2*band > 3*k && band >= minSplitBand }

// sector is an angular interval [lo, hi) waiting to be split or swept.
// band holds its tuples' local indexes in the loop's order at lo.
type sector struct {
	lo, hi float64
	band   []int
	depth  int
}

// bisection is the sector recursion's state on the arena: the rank
// target, the dominance margin, one band buffer per depth, carved from
// one slab, and the stack of sectors still to visit, right siblings
// pushed while the walk goes left, so leaves come off it in angle order.
// A left child's band is compacted in its parent's buffer; a right
// child's goes to the buffer of its parent's depth, which is free once
// every sector pushed after it has been swept. So at most one sector per
// depth waits on the stack.
type bisection struct {
	k     int
	eps   float64
	bufs  [maxSectorDepth][]int
	slab  []int
	stack [maxSectorDepth + 1]sector
	top   int
	// leaves and refused count, for the last sweep, the sectors swept and
	// the split angles the check refused.
	leaves, refused int
}

// buf returns depth d's band buffer with room for n local indexes. The
// buffers are carved from one slab, so a cold arena allocates once or
// twice for all depths rather than once per depth.
func (b *bisection) buf(d, n int) []int {
	if cap(b.bufs[d]) >= n {
		return b.bufs[d][:n]
	}
	if len(b.slab)+n > cap(b.slab) {
		b.slab = make([]int, 0, max(2*cap(b.slab), 4*n))
	}
	at := len(b.slab)
	b.slab = b.slab[:at+n]
	b.bufs[d] = b.slab[at : at+n : at+n]
	return b.bufs[d]
}

// direction is the ranking function (cos θ, sin θ) of a sector end. It is
// exact at the two axes, so the root sector's coordinates are x1 and x2
// themselves.
type direction struct{ c, s float64 }

func directionAt(theta float64) direction {
	switch theta {
	case 0:
		return direction{1, 0}
	case geom.HalfPi:
		return direction{0, 1}
	}
	return direction{math.Cos(theta), math.Sin(theta)}
}

// score rounds each product explicitly, so no fused multiply-add makes
// one call site's score differ from another's: the band passes rely on an
// order sorted by this exact value.
func (d direction) score(t core.Tuple) float64 {
	return float64(d.c*t.Attrs[0]) + float64(d.s*t.Attrs[1])
}

// sectorBand compacts order, which must be sorted by score at lo
// descending, in place to the tuples that fewer than k others beat by
// more than eps at both lo and hi, and returns the survivors in the same
// order. heap is the buffer of the pass's size-k min-heap; it is returned
// so the caller can keep its storage.
//
// The pass walks the order once, keeping the k largest scores at hi of
// the survivors that score more than eps above the current tuple at lo:
// a trailing cursor inserts them as the walk passes them by that margin.
// A tuple is dropped when the heap is full and its minimum is more than
// eps above the tuple's score at hi. Only survivors are inserted: a
// dropped tuple's score at hi is below the heap minimum, which only
// rises, so inserting it later would change nothing. O(s log k).
func sectorBand(ts []core.Tuple, order []int, k int, lo, hi direction, eps float64, heap []float64) ([]int, []float64) {
	heap = heap[:0]
	w, j := 0, 0
	for _, li := range order {
		at := lo.score(ts[li]) + eps
		for ; j < w && lo.score(ts[order[j]]) > at; j++ {
			heap = pushBand(heap, k, hi.score(ts[order[j]]))
		}
		if len(heap) < k || heap[0] <= hi.score(ts[li])+eps {
			order[w] = li
			w++
		}
	}
	return order[:w], heap
}

// bisect puts the root sector [0, π/2] with the band in sc.order — the
// k-skyband, in initial order — on the stack of sectors to sweep at rank
// target k. When the band may split, it also sets the dominance margin.
//
// eps covers rounding in the scores, as topk.exitSlack does in the d-D
// scan: each computed score is within 4u·(|x1| + |x2|) of the exact
// x1·cos θ + x2·sin θ at the sector's angle (u = 2^-53; one ulp in each of
// cos and sin, and three roundings), so a difference of two is within
// 8u·M, M the band's largest |x1| + |x2|. eps = 16u·M keeps a margin
// above that and above the rounding of the comparison's own sum, so a
// tuple counted as beaten is beaten exactly.
func (sc *Scratch) bisect(ts []core.Tuple, k int) {
	b := &sc.sectors
	b.k, b.leaves, b.refused = k, 0, 0
	b.stack[0], b.top = sector{lo: 0, hi: geom.HalfPi, band: sc.order}, 1
	if !splittable(len(sc.order), k) {
		return
	}
	m := 0.0
	for _, li := range sc.order {
		m = max(m, math.Abs(ts[li].Attrs[0])+math.Abs(ts[li].Attrs[1]))
	}
	b.eps = 0x1p-49 * m
}

// nextLeaf takes the next sector off the stack, splits it while the rule
// allows and a split angle passes the check, and starts the loop on the
// leaf's band, bounded by the leaf's right end; the last leaf runs to
// π/2. It reports false once every sector has been swept.
func (sc *Scratch) nextLeaf(ts []core.Tuple) bool {
	b := &sc.sectors
	if b.top == 0 {
		return false
	}
	b.top--
	s := b.stack[b.top]
	for s.depth < maxSectorDepth && splittable(len(s.band), b.k) {
		left, right, ok := sc.split(ts, s)
		if !ok {
			break
		}
		b.stack[b.top] = right
		b.top++
		s = left
	}
	b.leaves++
	sc.order = s.band
	end := s.hi
	if end == geom.HalfPi {
		end = math.Inf(1)
	}
	sc.start(ts, end)
	return true
}

// split bisects s at the first of its 1/2, 3/8 and 5/8 points that passes
// the check, and returns the two children with their bands: the left one
// compacted in s's buffer, in s's order at s.lo, and the right one in the
// sorted order at the split angle. It declines, sweeping s whole, when
// every point is refused or when neither child's band is smaller than
// s's; a left band as large as s's is s's band itself, so declining after
// the passes leaves s intact.
func (sc *Scratch) split(ts []core.Tuple, s sector) (left, right sector, ok bool) {
	b := &sc.sectors
	for _, f := range [...]float64{0.5, 0.375, 0.625} {
		m := s.lo + f*(s.hi-s.lo)
		dm := directionAt(m)
		sorted := b.buf(s.depth, len(s.band))
		if !sc.sortCertified(ts, s.band, m, dm, sorted) {
			b.refused++
			continue
		}
		var lb, rb []int
		rb, sc.band = sectorBand(ts, sorted, b.k, dm, directionAt(s.hi), b.eps, sc.band)
		lb, sc.band = sectorBand(ts, s.band, b.k, directionAt(s.lo), dm, b.eps, sc.band)
		if len(lb) == len(s.band) && len(rb) == len(s.band) {
			return sector{}, sector{}, false
		}
		return sector{lo: s.lo, hi: m, band: lb, depth: s.depth + 1},
			sector{lo: m, hi: s.hi, band: rb, depth: s.depth + 1}, true
	}
	return sector{}, sector{}, false
}

// sortCertified writes band, sorted by score at m (ties in band order,
// as a stable sort leaves them), into out, and reports whether that is
// the loop's order after every event key below m. It checks each adjacent pair with the loop's own
// rule (crossing): a pair still in initial order must never be exchanged
// or be exchanged at a key above m + δ, and a swapped pair must have been
// exchanged at a key below m − δ. By the adjacent-chain argument of
// DESIGN.md §3 no pair of the band then has a key within δ of m, and the
// loop's order once its next key reaches m is exactly the sorted one.
func (sc *Scratch) sortCertified(ts []core.Tuple, band []int, m float64, dm direction, out []int) bool {
	// The scores, by band position, live in the band passes' heap storage
	// (capacity n), which is free until the passes run. out first holds
	// the band positions, sorted, then the tuples at them.
	scores := sc.band[:len(band)]
	for p, li := range band {
		scores[p] = dm.score(ts[li])
		out[p] = p
	}
	slices.SortFunc(out, func(a, b int) int {
		if scores[a] != scores[b] {
			if scores[a] > scores[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	for i, p := range out {
		out[i] = band[p]
	}
	for i := 0; i+1 < len(out); i++ {
		x, y := out[i], out[i+1]
		if initialLess(ts[x], ts[y]) {
			if theta, ok := crossing(ts[x], ts[y]); ok && theta <= m+splitSlack {
				return false
			}
		} else if theta, ok := crossing(ts[y], ts[x]); !ok || theta >= m-splitSlack {
			return false
		}
	}
	return true
}
