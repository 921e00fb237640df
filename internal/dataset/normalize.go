package dataset

import (
	"errors"
	"fmt"
	"math"

	"rrr/internal/core"
)

// Normalize applies the paper's Section 6.1 preprocessing and returns the
// point cloud the algorithms run on: each higher-preferred attribute A maps
// v ↦ (v − min A)/(max A − min A) and each lower-preferred attribute maps
// v ↦ (max A − v)/(max A − min A), so that the result lives in [0,1]^d with
// uniform higher-is-better semantics. A constant column (max = min), for
// which the paper's formula is undefined, maps to 0.5 everywhere — it
// cannot discriminate tuples either way.
//
// Tables with materialized IDs normalize into a dataset carrying those IDs,
// so a table mutated by AppendRows/DeleteRows keeps addressing the same
// tuples before and after normalization.
func (t *Table) Normalize() (*core.Dataset, error) {
	if t.N() == 0 {
		return nil, errors.New("dataset: empty table")
	}
	if t.Dims() == 0 {
		return nil, errors.New("dataset: table has no attributes")
	}
	d := t.Dims()
	mins := make([]float64, d)
	maxs := make([]float64, d)
	copy(mins, t.Rows[0])
	copy(maxs, t.Rows[0])
	for i, row := range t.Rows {
		if len(row) != d {
			return nil, fmt.Errorf("dataset: row %d has %d values, want %d", i, len(row), d)
		}
		for j, v := range row {
			// Reject non-finite values here rather than relying on the
			// downstream dataset constructor: a NaN that is neither the
			// column minimum nor maximum (NaN comparisons are all false)
			// would otherwise masquerade as a constant column and silently
			// normalize to 0.5.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: row %d attribute %q is not finite", i, t.Attrs[j].Name)
			}
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	if t.IDs != nil && len(t.IDs) != t.N() {
		return nil, fmt.Errorf("dataset: %d IDs for %d rows", len(t.IDs), t.N())
	}
	// One backing array holds every point, so normalizing costs a fixed
	// number of allocations however many rows the table has.
	backing := make([]float64, t.N()*d)
	points := make([][]float64, t.N())
	for i, row := range t.Rows {
		p := backing[i*d : (i+1)*d : (i+1)*d]
		for j, v := range row {
			span := maxs[j] - mins[j]
			switch {
			case span == 0:
				p[j] = 0.5
			case t.Attrs[j].HigherBetter:
				p[j] = (v - mins[j]) / span
			default:
				p[j] = (maxs[j] - v) / span
			}
		}
		points[i] = p
	}
	if t.IDs == nil {
		return core.NewDataset(points)
	}
	tuples := make([]core.Tuple, len(points))
	for i, p := range points {
		tuples[i] = core.Tuple{ID: t.IDs[i], Attrs: p}
	}
	return core.FromTuples(tuples)
}

// Project returns a new table with only the listed attribute columns, in
// order — the experiments' "first d attributes" device.
func (t *Table) Project(cols []int) (*Table, error) {
	if len(cols) == 0 {
		return nil, errors.New("dataset: projection onto zero attributes")
	}
	attrs := make([]Attr, len(cols))
	for i, c := range cols {
		if c < 0 || c >= t.Dims() {
			return nil, fmt.Errorf("dataset: projection column %d out of range [0,%d)", c, t.Dims())
		}
		attrs[i] = t.Attrs[c]
	}
	d := len(cols)
	backing := make([]float64, t.N()*d)
	rows := make([][]float64, t.N())
	for i, row := range t.Rows {
		r := backing[i*d : (i+1)*d : (i+1)*d]
		for j, c := range cols {
			r[j] = row[c]
		}
		rows[i] = r
	}
	return &Table{Name: t.Name, Attrs: attrs, Rows: rows, IDs: t.IDs}, nil
}

// FirstDims projects onto the first d attributes.
func (t *Table) FirstDims(d int) (*Table, error) {
	if d <= 0 || d > t.Dims() {
		return nil, fmt.Errorf("dataset: cannot take first %d of %d attributes", d, t.Dims())
	}
	cols := make([]int, d)
	for i := range cols {
		cols[i] = i
	}
	return t.Project(cols)
}

// Prefix returns a table with only the first n rows (rows are shared, not
// copied).
func (t *Table) Prefix(n int) (*Table, error) {
	if n <= 0 || n > t.N() {
		return nil, fmt.Errorf("dataset: prefix size %d out of range [1,%d]", n, t.N())
	}
	out := &Table{Name: t.Name, Attrs: t.Attrs, Rows: t.Rows[:n]}
	if t.IDs != nil {
		out.IDs = t.IDs[:n]
	}
	return out, nil
}
