package cover

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Scratch is the arena of the interval-cover algorithms: the max-gain
// greedy's uncovered-space segment list (double buffered so subtraction
// swaps buffers instead of reallocating) and the optimal sweep's sorted
// working copy. A warm Scratch makes repeated covers allocation-free on
// the success path. Nothing in it escapes a cover call, so a temporary
// Scratch (the plain CoverMaxGain and CoverOptimal) lives on the stack.
//
// A Scratch serves one cover at a time; the []int returned by the *Scratch
// functions aliases the arena and is valid only until its next use. The
// zero value is ready to use.
type Scratch struct {
	out    []int
	segs   [][2]float64
	spare  [][2]float64
	sorted []Interval
}

// compareIntervals orders intervals by (Lo, ID).
func compareIntervals(a, b Interval) int {
	if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// resetUncovered initializes the uncovered space to the single segment
// [lo, hi], reusing the arena's buffers.
func (sc *Scratch) resetUncovered(lo, hi float64) {
	sc.segs = append(sc.segs[:0], [2]float64{lo, hi})
	sc.spare = sc.spare[:0]
}

// uncoveredGain returns the length of [lo,hi] ∩ uncovered — Algorithm 2
// line 8, with the binary search hand-rolled so no closure reaches the
// hot loop.
func (sc *Scratch) uncoveredGain(lo, hi float64) float64 {
	// First segment whose end is beyond lo.
	i, j := 0, len(sc.segs)
	for i < j {
		h := (i + j) / 2
		if sc.segs[h][1] > lo {
			j = h
		} else {
			i = h + 1
		}
	}
	total := 0.0
	for ; i < len(sc.segs) && sc.segs[i][0] < hi; i++ {
		a := math.Max(lo, sc.segs[i][0])
		b := math.Min(hi, sc.segs[i][1])
		if b > a {
			total += b - a
		}
	}
	return total
}

// uncoveredSubtract removes [lo,hi] from the uncovered space (Algorithm 2
// lines 13–22 generalized to any overlap pattern) by rebuilding the
// segment list into the spare buffer and swapping. Every segment left
// ends at or before lo or starts at or after hi, so [lo,hi]'s own gain
// drops to exactly zero.
func (sc *Scratch) uncoveredSubtract(lo, hi float64) {
	out := sc.spare[:0]
	for _, s := range sc.segs {
		if s[1] <= lo || s[0] >= hi {
			out = append(out, s)
			continue
		}
		if s[0] < lo-contactTol {
			out = append(out, [2]float64{s[0], lo})
		}
		if s[1] > hi+contactTol {
			out = append(out, [2]float64{hi, s[1]})
		}
	}
	sc.segs, sc.spare = out, sc.segs[:0]
}

// CoverMaxGainScratch is CoverMaxGain on a caller-owned arena. The returned
// IDs alias sc and are valid only until the Scratch's next use; a nil sc
// uses a temporary arena.
func CoverMaxGainScratch(intervals []Interval, lo, hi float64, sc *Scratch) ([]int, error) {
	if hi < lo {
		return nil, fmt.Errorf("cover: empty target [%g, %g]", lo, hi)
	}
	if sc == nil {
		sc = new(Scratch)
	}
	sc.resetUncovered(lo, hi)
	out := sc.out[:0]
	for len(sc.segs) > 0 {
		// A picked interval keeps zero gain from then on
		// (uncoveredSubtract), so it never wins again.
		bestGain := 0.0
		best := -1
		for idx, iv := range intervals {
			g := sc.uncoveredGain(iv.Lo, iv.Hi)
			if g > bestGain+contactTol ||
				(g > 0 && math.Abs(g-bestGain) <= contactTol && best >= 0 && iv.ID < intervals[best].ID) {
				bestGain = g
				best = idx
			}
		}
		if best == -1 || bestGain <= contactTol {
			// Residual slivers below tolerance are numerical dust from
			// exact-contact endpoints; treat them as covered.
			residual := 0.0
			for _, s := range sc.segs {
				residual += s[1] - s[0]
			}
			if residual <= 16*contactTol {
				break
			}
			return nil, fmt.Errorf("cover: %g of the target remains uncoverable", residual)
		}
		out = append(out, intervals[best].ID)
		sc.uncoveredSubtract(intervals[best].Lo, intervals[best].Hi)
	}
	sc.out = out
	return out, nil
}

// CoverOptimalScratch is CoverOptimal on a caller-owned arena: the sorted
// working copy and the output live in sc. The returned IDs alias sc and
// are valid only until the Scratch's next use; a nil sc uses a temporary
// arena.
func CoverOptimalScratch(intervals []Interval, lo, hi float64, sc *Scratch) ([]int, error) {
	if hi < lo {
		return nil, fmt.Errorf("cover: empty target [%g, %g]", lo, hi)
	}
	if sc == nil {
		sc = new(Scratch)
	}
	sorted := append(sc.sorted[:0], intervals...)
	slices.SortFunc(sorted, compareIntervals)
	sc.sorted = sorted
	out := sc.out[:0]
	cur := lo
	i := 0
	for {
		bestHi := math.Inf(-1)
		bestID := -1
		for i < len(sorted) && sorted[i].Lo <= cur+contactTol {
			if sorted[i].Hi > bestHi || (sorted[i].Hi == bestHi && sorted[i].ID < bestID) {
				bestHi = sorted[i].Hi
				bestID = sorted[i].ID
			}
			i++
		}
		if bestID == -1 || bestHi <= cur+contactTol {
			if cur >= hi-contactTol {
				break
			}
			return nil, fmt.Errorf("cover: gap at %g, cannot reach %g", cur, hi)
		}
		out = append(out, bestID)
		cur = bestHi
		if cur >= hi-contactTol {
			break
		}
	}
	sc.out = out
	return out, nil
}
