// Package geom provides the computational-geometry substrate of the RRR
// library: the parameterisation of the linear-function space by angles, the
// dual transform of Section 3 of the paper, hyperplanes, and uniform
// sampling of ranking functions from the positive orthant of the unit
// hypersphere (Marsaglia's method, used by Algorithm 4, K-SETr).
//
// Function space. Every positive linear ranking function corresponds to an
// origin-starting ray in the positive orthant of R^d, identified by d-1
// angles θ ∈ [0, π/2]^{d-1} (Section 3). This package fixes the concrete
// chart: hyperspherical coordinates
//
//	w_1 = cos θ_1
//	w_2 = sin θ_1 · cos θ_2
//	...
//	w_d = sin θ_1 · sin θ_2 · ... · sin θ_{d-1}
//
// For d = 2 this is the paper's single sweep angle: θ = 0 is f = x1 and
// θ = π/2 is f = x2.
package geom

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"rrr/internal/core"
)

// HalfPi is the upper end of every angular dimension of the function space.
const HalfPi = math.Pi / 2

// AnglesToWeight maps a point of the angle space [0, π/2]^{d-1} to the unit
// weight vector of the corresponding ranking function (d = len(theta)+1).
func AnglesToWeight(theta []float64) []float64 {
	w := make([]float64, len(theta)+1)
	AnglesToWeightInto(w, theta)
	return w
}

// AnglesToWeightInto is AnglesToWeight writing into the caller's
// len(theta)+1 buffer, with bit-identical results.
func AnglesToWeightInto(w, theta []float64) {
	sinProd := 1.0
	for i, th := range theta {
		w[i] = sinProd * math.Cos(th)
		sinProd *= math.Sin(th)
	}
	w[len(theta)] = sinProd
}

// WeightToAngles inverts AnglesToWeight for non-negative weight vectors.
// The input need not be normalized; only the direction matters.
func WeightToAngles(w []float64) ([]float64, error) {
	if len(w) < 2 {
		return nil, errors.New("geom: need at least two weights")
	}
	var norm2 float64
	for i, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("geom: weight %d = %g outside the positive orthant", i, v)
		}
		norm2 += v * v
	}
	if norm2 == 0 {
		return nil, errors.New("geom: zero weight vector")
	}
	theta := make([]float64, len(w)-1)
	// Remaining radius after peeling off leading coordinates.
	rest := math.Sqrt(norm2)
	for i := 0; i < len(theta); i++ {
		if rest == 0 {
			theta[i] = 0
			continue
		}
		c := w[i] / rest
		c = math.Min(1, math.Max(-1, c))
		theta[i] = math.Acos(c)
		rest *= math.Sin(theta[i])
	}
	return theta, nil
}

// FuncFromAngles builds the core.LinearFunc at the given angle-space point.
func FuncFromAngles(theta []float64) core.LinearFunc {
	return core.LinearFunc{W: AnglesToWeight(theta)}
}

// FuncFromAngle2D builds the 2-D ranking function at sweep angle θ:
// f = cos(θ)·x1 + sin(θ)·x2.
func FuncFromAngle2D(theta float64) core.LinearFunc {
	return core.NewLinearFunc(math.Cos(theta), math.Sin(theta))
}

// RandomWeight draws a weight vector uniformly at random from the surface of
// the positive orthant of the unit hypersphere using Marsaglia's method, as
// Algorithm 4 of the paper prescribes: take the absolute values of d
// standard normal draws and normalize.
func RandomWeight(d int, rng *rand.Rand) []float64 {
	w := make([]float64, d)
	RandomWeightInto(w, rng)
	return w
}

// RandomFunc draws a ranking function uniformly from the function space.
func RandomFunc(d int, rng *rand.Rand) core.LinearFunc {
	return core.LinearFunc{W: RandomWeight(d, rng)}
}

// RandomWeightInto is RandomWeight writing into the caller's length-d
// buffer instead of allocating, so sampling loops can reuse one weight
// vector across thousands of draws, or carve many from one backing array.
// RandomWeight is this draw on a fresh buffer, so seeded streams are
// bit-for-bit reproducible across the two entry points.
func RandomWeightInto(w []float64, rng *rand.Rand) {
	for {
		var norm2 float64
		for i := range w {
			w[i] = math.Abs(rng.NormFloat64())
			norm2 += w[i] * w[i]
		}
		if norm2 == 0 {
			continue // astronomically unlikely; redraw
		}
		norm := math.Sqrt(norm2)
		for i := range w {
			w[i] /= norm
		}
		return
	}
}

// Dot computes the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm computes the Euclidean norm of a vector.
func Norm(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

// Hyperplane is the set {x : Normal·x = Offset} in R^d.
type Hyperplane struct {
	Normal []float64
	Offset float64
}

// Eval returns Normal·x − Offset: positive above the plane (the half space
// away from the origin when Offset > 0), negative below.
func (h Hyperplane) Eval(x []float64) float64 {
	return Dot(h.Normal, x) - h.Offset
}

// DualOf maps a tuple t to its dual hyperplane d(t): Σ t[i]·x_i = 1
// (Equation 2 of the paper).
func DualOf(t core.Tuple) Hyperplane {
	n := make([]float64, len(t.Attrs))
	copy(n, t.Attrs)
	return Hyperplane{Normal: n, Offset: 1}
}

// DualRayIntersection returns the distance from the origin along the ray of
// the weight vector w at which the dual hyperplane of t intersects it, i.e.
// s with s·(w·t) = 1. Tuples whose dual intersection is closer to the origin
// rank higher (Section 3). The boolean is false when the ray never meets the
// plane (w·t <= 0).
func DualRayIntersection(t core.Tuple, w []float64) (float64, bool) {
	s := Dot(w, t.Attrs)
	if s <= 0 {
		return 0, false
	}
	return 1 / s, true
}

// CrossAngle2D returns the sweep angle θ ∈ (0, π/2) at which 2-D tuples a
// and b have equal score, i.e. the ordering exchange angle of Algorithm 1:
//
//	θ = arctan( (b[0] − a[0]) / (a[1] − b[1]) )
//
// The boolean is false when the two score functions do not cross inside the
// open interval (0, π/2): one tuple dominates the other (or they are equal).
func CrossAngle2D(a, b core.Tuple) (float64, bool) {
	dx := b.Attrs[0] - a.Attrs[0] // a ahead on x1 ⇒ dx < 0
	dy := a.Attrs[1] - b.Attrs[1] // b ahead on x2 ⇒ dy < 0
	// Scores cross strictly inside (0, π/2) iff dx and dy have the same
	// strict sign: cos(θ)·dx = sin(θ)·dy ⇒ tan(θ) = dx/dy > 0.
	if dx == 0 || dy == 0 {
		return 0, false
	}
	if (dx > 0) != (dy > 0) {
		return 0, false
	}
	return math.Atan2(math.Abs(dx), math.Abs(dy)), true
}

// Rect is an axis-aligned hyper-rectangle of the (d−1)-dimensional angle
// space, used by algorithm MDRC's recursive partitioning (Section 5.3).
type Rect struct {
	Lo, Hi []float64
}

// FullAngleSpace returns the root rectangle [0, π/2]^{d-1} for datasets of
// dimension dims.
func FullAngleSpace(dims int) Rect {
	lo := make([]float64, dims-1)
	hi := make([]float64, dims-1)
	for i := range hi {
		hi[i] = HalfPi
	}
	return Rect{Lo: lo, Hi: hi}
}

// Dim returns the dimensionality of the rectangle (d−1 for d-attribute
// data).
func (r Rect) Dim() int { return len(r.Lo) }

// Width returns the extent of the rectangle along axis i.
func (r Rect) Width(i int) float64 { return r.Hi[i] - r.Lo[i] }

// MaxWidth returns the largest extent over all axes.
func (r Rect) MaxWidth() float64 {
	m := 0.0
	for i := range r.Lo {
		if w := r.Width(i); w > m {
			m = w
		}
	}
	return m
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Split bisects the rectangle along the given axis and returns the low and
// high halves, matching lines 5–7 of Algorithm 5.
func (r Rect) Split(axis int) (Rect, Rect) {
	mid := (r.Lo[axis] + r.Hi[axis]) / 2
	lo1 := append([]float64(nil), r.Lo...)
	hi1 := append([]float64(nil), r.Hi...)
	lo2 := append([]float64(nil), r.Lo...)
	hi2 := append([]float64(nil), r.Hi...)
	hi1[axis] = mid
	lo2[axis] = mid
	return Rect{Lo: lo1, Hi: hi1}, Rect{Lo: lo2, Hi: hi2}
}

// Corners enumerates the 2^dim corner points of the rectangle in a
// deterministic order (binary counting over axes, low bit = axis 0 at Lo).
func (r Rect) Corners() [][]float64 {
	out := make([][]float64, 1<<uint(r.Dim()))
	for mask := range out {
		out[mask] = make([]float64, r.Dim())
		r.CornerInto(out[mask], mask)
	}
	return out
}

// CornerInto writes corner number mask of Corners' order into the
// caller's length-Dim buffer.
func (r Rect) CornerInto(c []float64, mask int) {
	for i := range c {
		if mask&(1<<uint(i)) != 0 {
			c[i] = r.Hi[i]
		} else {
			c[i] = r.Lo[i]
		}
	}
}

// Contains reports whether the angle point lies inside the closed
// rectangle.
func (r Rect) Contains(theta []float64) bool {
	if len(theta) != r.Dim() {
		return false
	}
	for i, v := range theta {
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}
