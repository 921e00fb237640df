// Package core defines the shared vocabulary of the rank-regret
// representative (RRR) library: tuples, datasets, linear ranking functions,
// scores, and ranks.
//
// The definitions follow Section 2 of "RRR: Rank-Regret Representative"
// (Asudeh et al., SIGMOD 2019). A database D holds n tuples over d numeric
// attributes. A linear ranking function f with a positive weight vector w
// scores a tuple as f(t) = Σ w_i·t[i]; higher scores rank higher. The rank
// ∇_f(t) of a tuple is its 1-based position in the ordering of D by f.
//
// The paper assumes a tie-breaker so that no two tuples share a score; this
// package makes the tie-breaker explicit and deterministic: on equal scores
// the tuple with the smaller ID outranks the other. Every algorithm in the
// repository inherits this rule, which keeps all results reproducible.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Tuple is a single item of the database: an identifier plus a point in R^d.
// IDs are stable handles used by every algorithm to refer to dataset items;
// for datasets built with NewDataset, Tuple IDs equal slice indexes.
type Tuple struct {
	// ID identifies the tuple within its dataset.
	ID int
	// Attrs holds the attribute values. For the paper's experiments these
	// are min-max normalized into [0, 1] with "higher is better" semantics,
	// but the algorithms only require finite, non-negative values.
	Attrs []float64
}

// Dim returns the number of attributes of the tuple.
func (t Tuple) Dim() int { return len(t.Attrs) }

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	attrs := make([]float64, len(t.Attrs))
	copy(attrs, t.Attrs)
	return Tuple{ID: t.ID, Attrs: attrs}
}

// String renders the tuple like "t3(0.67, 0.6)" for debugging and examples.
func (t Tuple) String() string {
	s := fmt.Sprintf("t%d(", t.ID)
	for i, v := range t.Attrs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%g", v)
	}
	return s + ")"
}

// Dataset is an immutable collection of tuples sharing a dimensionality.
// The zero value is an empty dataset; construct real ones with NewDataset
// or FromTuples.
type Dataset struct {
	tuples []Tuple
	dims   int
	// byID maps tuple ID to index in tuples. It is nil when IDs equal
	// indexes (the common case), avoiding the map entirely.
	byID map[int]int
	// scanOnce guards scanOrder and scanNorms, which the first
	// ScanOrder call builds and every later one shares.
	scanOnce  sync.Once
	scanOrder []int32
	scanNorms []float64
	// dominators holds the DominatorCounts index once a build succeeds,
	// and band the most recent KSkyband.
	dominators atomic.Pointer[[]int32]
	band       atomic.Pointer[skyband]
}

// NewDataset builds a dataset from raw points, assigning IDs 0..n-1 in
// order. All points must share the same non-zero dimension and contain only
// finite values. The points are copied into one backing array, so a
// dataset costs two allocations however many tuples it holds.
func NewDataset(points [][]float64) (*Dataset, error) {
	if err := checkSize(len(points)); err != nil {
		return nil, err
	}
	d := len(points[0])
	if d == 0 {
		return nil, errors.New("core: zero-dimensional tuples")
	}
	tuples := make([]Tuple, len(points))
	backing := make([]float64, len(points)*d)
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("core: tuple %d has %d attributes, want %d", i, len(p), d)
		}
		attrs := backing[i*d : (i+1)*d : (i+1)*d]
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: tuple %d attribute %d is not finite", i, j)
			}
			attrs[j] = v
		}
		tuples[i] = Tuple{ID: i, Attrs: attrs}
	}
	return &Dataset{tuples: tuples, dims: d}, nil
}

// FromTuples builds a dataset from pre-labelled tuples. IDs must be unique;
// they need not be contiguous. Tuples are not copied.
func FromTuples(ts []Tuple) (*Dataset, error) {
	if err := checkSize(len(ts)); err != nil {
		return nil, err
	}
	d := ts[0].Dim()
	if d == 0 {
		return nil, errors.New("core: zero-dimensional tuples")
	}
	contiguous := true
	seen := make(map[int]int, len(ts))
	for i, t := range ts {
		if t.Dim() != d {
			return nil, fmt.Errorf("core: tuple %d has %d attributes, want %d", t.ID, t.Dim(), d)
		}
		if prev, dup := seen[t.ID]; dup {
			return nil, fmt.Errorf("core: duplicate tuple ID %d at indexes %d and %d", t.ID, prev, i)
		}
		seen[t.ID] = i
		if t.ID != i {
			contiguous = false
		}
	}
	ds := &Dataset{tuples: ts, dims: d}
	if !contiguous {
		ds.byID = seen
	}
	return ds, nil
}

// checkSize rejects an empty dataset, and one too large for ScanOrder's
// int32 indexes.
func checkSize(n int) error {
	if n == 0 {
		return errors.New("core: empty dataset")
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("core: %d tuples exceed the limit of %d", n, math.MaxInt32)
	}
	return nil
}

// MustNewDataset is NewDataset that panics on error; intended for tests and
// examples with literal data.
func MustNewDataset(points [][]float64) *Dataset {
	ds, err := NewDataset(points)
	if err != nil {
		panic(err)
	}
	return ds
}

// N returns the number of tuples.
func (d *Dataset) N() int { return len(d.tuples) }

// Dims returns the number of attributes.
func (d *Dataset) Dims() int { return d.dims }

// Tuple returns the tuple at slice index i (not by ID).
func (d *Dataset) Tuple(i int) Tuple { return d.tuples[i] }

// Tuples returns the underlying tuple slice. Callers must not modify it.
func (d *Dataset) Tuples() []Tuple { return d.tuples }

// ScanOrder returns the dataset's slice indexes ordered by descending
// Norm of their tuples, up to one bucket width (below), and for each
// position the largest norm from that position to the end. The first
// call builds both, in O(n), and every later call, concurrent ones
// included, shares them: 12 bytes per tuple, built at most once per
// dataset. Callers must not modify either slice.
//
// Top-k selection scans in this order so that it can stop early: by
// Cauchy–Schwarz no tuple from position j on scores above
// ‖w‖·norms[j]. The order is a counting sort into n buckets of equal
// width between the smallest and the largest finite norm, with +Inf
// first and each bucket in index order. Within a bucket norms may rise,
// which is why norms[j] is a suffix maximum and not tuple j's own norm;
// it exceeds that norm by less than one bucket width. A bucket is at
// least 2^-20 of the largest norm wide, so tuples whose norms differ only
// by rounding, such as points on a sphere, keep their index order and
// are read in memory order.
func (d *Dataset) ScanOrder() ([]int32, []float64) {
	d.scanOnce.Do(func() {
		n := len(d.tuples)
		byIndex := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, t := range d.tuples {
			v := Norm(t.Attrs)
			byIndex[i] = v
			if !math.IsInf(v, 1) {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		// Bucket 0 holds the +Inf norms; buckets 1..n the finite ones,
		// the largest first.
		scale := 0.0
		if width := max(hi-lo, hi*0x1p-20); width > 0 {
			scale = float64(n-1) / width
		}
		bucket := func(v float64) int {
			if math.IsInf(v, 1) {
				return 0
			}
			return 1 + int((hi-v)*scale)
		}
		start := make([]int32, n+2)
		for _, v := range byIndex {
			start[bucket(v)+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		d.scanOrder = make([]int32, n)
		for i, v := range byIndex {
			b := bucket(v)
			d.scanOrder[start[b]] = int32(i)
			start[b]++
		}
		d.scanNorms = make([]float64, n)
		for j := n - 1; j >= 0; j-- {
			d.scanNorms[j] = byIndex[d.scanOrder[j]]
			if j+1 < n {
				d.scanNorms[j] = max(d.scanNorms[j], d.scanNorms[j+1])
			}
		}
	})
	return d.scanOrder, d.scanNorms
}

// Norm returns the Euclidean norm of v, computed as the square root of
// the sum of squares in index order, or +Inf when some v[i] is not finite
// or has a non-zero magnitude outside [2^-500, 2^500]. In that range no
// square or product with a weight in the same range underflows or
// overflows, so the result differs from the exact norm by rounding alone:
// at most a factor (1 − γ_d)(1 − 2^-53) below it, γ_d = d·2^-53/(1 − d·2^-53).
// +Inf is an upper bound that never lets a scan stop early.
func Norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		a := math.Abs(x)
		if a != 0 && !(a >= 0x1p-500 && a <= 0x1p500) {
			return math.Inf(1)
		}
		s += x * x
	}
	return math.Sqrt(s)
}

// ByID returns the tuple with the given ID.
func (d *Dataset) ByID(id int) (Tuple, bool) {
	if d.byID == nil {
		if id < 0 || id >= len(d.tuples) {
			return Tuple{}, false
		}
		return d.tuples[id], true
	}
	i, ok := d.byID[id]
	if !ok {
		return Tuple{}, false
	}
	return d.tuples[i], true
}

// IndexOf returns the slice index of the tuple with the given ID, or -1.
func (d *Dataset) IndexOf(id int) int {
	if d.byID == nil {
		if id < 0 || id >= len(d.tuples) {
			return -1
		}
		return id
	}
	if i, ok := d.byID[id]; ok {
		return i
	}
	return -1
}

// Project returns a new dataset keeping only the listed attribute columns,
// in the given order. Tuple IDs are preserved.
func (d *Dataset) Project(cols []int) (*Dataset, error) {
	if len(cols) == 0 {
		return nil, errors.New("core: projection onto zero attributes")
	}
	for _, c := range cols {
		if c < 0 || c >= d.dims {
			return nil, fmt.Errorf("core: projection column %d out of range [0,%d)", c, d.dims)
		}
	}
	tuples := make([]Tuple, len(d.tuples))
	for i, t := range d.tuples {
		attrs := make([]float64, len(cols))
		for j, c := range cols {
			attrs[j] = t.Attrs[c]
		}
		tuples[i] = Tuple{ID: t.ID, Attrs: attrs}
	}
	out := &Dataset{tuples: tuples, dims: len(cols)}
	if d.byID != nil {
		out.byID = d.byID
	}
	return out, nil
}

// Prefix returns a new dataset with only the first n tuples. It is used by
// the experiment harness to sweep dataset sizes over one generated table.
func (d *Dataset) Prefix(n int) (*Dataset, error) {
	if n <= 0 || n > len(d.tuples) {
		return nil, fmt.Errorf("core: prefix size %d out of range [1,%d]", n, len(d.tuples))
	}
	out := &Dataset{tuples: d.tuples[:n], dims: d.dims}
	if d.byID != nil {
		byID := make(map[int]int, n)
		for i, t := range d.tuples[:n] {
			byID[t.ID] = i
		}
		out.byID = byID
	}
	return out, nil
}

// Subset returns the tuples with the given IDs, in the given order.
func (d *Dataset) Subset(ids []int) ([]Tuple, error) {
	out := make([]Tuple, 0, len(ids))
	for _, id := range ids {
		t, ok := d.ByID(id)
		if !ok {
			return nil, fmt.Errorf("core: unknown tuple ID %d", id)
		}
		out = append(out, t)
	}
	return out, nil
}

// LinearFunc is a linear ranking function f(t) = Σ W[i]·t[i] (Equation 1 of
// the paper). Weights should be non-negative with at least one positive
// entry; Validate checks this.
type LinearFunc struct {
	W []float64
}

// NewLinearFunc builds a linear ranking function from weights.
func NewLinearFunc(w ...float64) LinearFunc {
	cp := make([]float64, len(w))
	copy(cp, w)
	return LinearFunc{W: cp}
}

// Dim returns the dimensionality of the function's weight vector.
func (f LinearFunc) Dim() int { return len(f.W) }

// Score computes f(t).
func (f LinearFunc) Score(t Tuple) float64 {
	var s float64
	for i, w := range f.W {
		s += w * t.Attrs[i]
	}
	return s
}

// ScoreAttrs computes the score of a raw attribute vector, with the same
// arithmetic as Score.
func (f LinearFunc) ScoreAttrs(attrs []float64) float64 {
	attrs = attrs[:len(f.W)] // one bounds check instead of one per term
	var s float64
	for i, w := range f.W {
		s += w * attrs[i]
	}
	return s
}

// Validate reports an error when the function cannot rank tuples of the
// given dimensionality: wrong arity, negative/non-finite weights, or an
// all-zero weight vector.
func (f LinearFunc) Validate(dims int) error {
	if len(f.W) != dims {
		return fmt.Errorf("core: function has %d weights, dataset has %d attributes", len(f.W), dims)
	}
	positive := false
	for i, w := range f.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: weight %d is not finite", i)
		}
		if w < 0 {
			return fmt.Errorf("core: weight %d is negative (%g); the paper's L contains positive linear functions only", i, w)
		}
		if w > 0 {
			positive = true
		}
	}
	if !positive {
		return errors.New("core: all-zero weight vector")
	}
	return nil
}

// Normalize returns the function scaled to unit Euclidean norm. Scaling does
// not change the induced ranking; normalizing makes weight vectors
// comparable across algorithms and stable as map keys.
func (f LinearFunc) Normalize() LinearFunc {
	var norm float64
	for _, w := range f.W {
		norm += w * w
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return NewLinearFunc(f.W...)
	}
	out := make([]float64, len(f.W))
	for i, w := range f.W {
		out[i] = w / norm
	}
	return LinearFunc{W: out}
}

// String renders the function like "f(w=0.50,0.50)".
func (f LinearFunc) String() string {
	s := "f(w="
	for i, w := range f.W {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%.4g", w)
	}
	return s + ")"
}

// Outranks reports whether a outranks b under f: strictly larger score, or
// equal score and smaller ID (the library's deterministic tie-breaker).
func Outranks(f LinearFunc, a, b Tuple) bool {
	sa, sb := f.Score(a), f.Score(b)
	if sa != sb {
		return sa > sb
	}
	return a.ID < b.ID
}

// Rank computes ∇_f(t): one plus the number of dataset tuples that outrank
// t. The tuple itself need not belong to the dataset; if it does (matched by
// ID), it does not outrank itself.
func Rank(d *Dataset, f LinearFunc, t Tuple) int {
	r := 1
	for _, u := range d.tuples {
		if u.ID == t.ID {
			continue
		}
		if Outranks(f, u, t) {
			r++
		}
	}
	return r
}

// RankOfID computes the rank of the dataset tuple with the given ID.
func RankOfID(d *Dataset, f LinearFunc, id int) (int, error) {
	t, ok := d.ByID(id)
	if !ok {
		return 0, fmt.Errorf("core: unknown tuple ID %d", id)
	}
	return Rank(d, f, t), nil
}

// RankRegret computes RR_f(X) per Definition 1: the minimum rank over the
// tuples of X under f. X is given by tuple IDs. An empty X has rank-regret
// n+1 (worse than any tuple), which keeps maxima over function sets well
// defined.
func RankRegret(d *Dataset, f LinearFunc, ids []int) (int, error) {
	if len(ids) == 0 {
		return d.N() + 1, nil
	}
	// Rank of the best member = 1 + number of non-members outranking every
	// member. Computing via the best member's score avoids |X| full passes.
	best, ok := d.ByID(ids[0])
	if !ok {
		return 0, fmt.Errorf("core: unknown tuple ID %d", ids[0])
	}
	for _, id := range ids[1:] {
		t, ok := d.ByID(id)
		if !ok {
			return 0, fmt.Errorf("core: unknown tuple ID %d", id)
		}
		if Outranks(f, t, best) {
			best = t
		}
	}
	return Rank(d, f, best), nil
}
