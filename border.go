package rrr

import (
	"rrr/internal/exact"
	"rrr/internal/sweep"
)

// BorderFacet is one facet of the 2-D top-k border (the paper's Figure 3):
// over the sweep-angle interval [From, To] (radians from the x1-axis), the
// k-th ranked tuple is ID.
type BorderFacet = sweep.Facet

// KBorder2D computes the top-k border of a 2-D dataset: the chain of dual
// facets whose crossing defines every change of the top-k. It returns the
// facets in sweep order; they tile [0, π/2], and k above n is clamped to
// n. This is the geometric object underlying Algorithm 1 and the k-set
// enumeration.
func KBorder2D(d *Dataset, k int) ([]BorderFacet, error) {
	return sweep.KBorder(d, k)
}

// OptimalRRR2D computes the true optimal rank-regret representative of a
// 2-D dataset by exact k-set enumeration plus an exact minimum hitting set
// (Lemma 5 makes these equivalent). Exponential in the worst case — the
// problem is NP-complete in higher dimensions and this is the reference
// implementation for small inputs. maxSize (0 = unlimited) aborts early
// when the optimum would exceed the given budget.
func OptimalRRR2D(d *Dataset, k, maxSize int) ([]int, error) {
	return exact.RRR2D(d, k, maxSize)
}
