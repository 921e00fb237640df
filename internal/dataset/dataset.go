// Package dataset provides the data substrate of the RRR reproduction:
// raw multi-attribute tables with per-attribute preference directions, the
// min-max normalization of the paper's Section 6.1, CSV import/export, and
// synthetic generators standing in for the two real datasets the paper
// evaluates on.
//
// Substitution note (see DESIGN.md §4). The paper uses the US Department of
// Transportation flight-delay database (457,892 rows × 8 attributes) and
// the Blue Nile diamond catalog (116,300 rows × 5 attributes). Neither is
// redistributable nor reachable offline, so DOTLike and BNLike generate
// synthetic tables with the same schemas, heavy-tailed marginals, and —
// most importantly for the algorithms — the same correlation structure
// (AirTime↔Distance and DepDelay↔ArrDelay for DOT; Carat↔Price for BN).
// The RRR algorithms consume only the normalized [0,1]^d point cloud, whose
// k-set counts and representative sizes are driven by n, d, and correlation
// shape, all of which the generators reproduce.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Attr describes one attribute of a raw table.
type Attr struct {
	// Name is the attribute's display name.
	Name string
	// HigherBetter is true when larger raw values are preferred. The
	// normalization flips lower-is-better attributes so that the
	// normalized dataset is uniformly higher-is-better, as the paper's
	// preprocessing does.
	HigherBetter bool
}

// Table is a raw dataset before normalization.
type Table struct {
	Name  string
	Attrs []Attr
	Rows  [][]float64
	// IDs optionally assigns a stable tuple ID to each row; nil means rows
	// are identified by their index (0..n-1), the historical behavior.
	// Mutation operations (AppendRows, DeleteRows) materialize IDs so that
	// deleting rows never renumbers the survivors, and WriteCSV/ReadCSV
	// round-trip them through a leading "id" column.
	IDs []int
	// NextID is the watermark of fresh tuple IDs: AppendRows assigns from
	// max(NextID, max live ID + 1) and DeleteRows advances it past every
	// ID it removes, so within a table lineage the ID of a deleted tuple
	// is never reassigned to a later append — clients holding an ID can
	// never silently see a different tuple behind it. Zero on tables that
	// were never mutated. The CSV format does not carry the watermark:
	// ReadCSV reconstructs it as max(ID)+1, which preserves the guarantee
	// for every ID at or below the exported maximum.
	NextID int
}

// N returns the number of rows.
func (t *Table) N() int { return len(t.Rows) }

// Dims returns the number of attributes.
func (t *Table) Dims() int { return len(t.Attrs) }

// ID returns the stable tuple ID of row i: IDs[i] when IDs are
// materialized, the row index otherwise.
func (t *Table) ID(i int) int {
	if t.IDs != nil {
		return t.IDs[i]
	}
	return i
}

// materializeIDs returns the table's ID slice, building the identity
// assignment 0..n-1 when IDs were never materialized.
func (t *Table) materializeIDs() []int {
	if t.IDs != nil {
		return t.IDs
	}
	ids := make([]int, t.N())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// validateRow rejects rows that cannot join the table: wrong arity or
// non-finite values.
func (t *Table) validateRow(row []float64) error {
	if len(row) != t.Dims() {
		return fmt.Errorf("dataset: row has %d values, want %d", len(row), t.Dims())
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: attribute %q is not finite", t.Attrs[j].Name)
		}
	}
	return nil
}

// AppendRows returns a new table with the rows appended and fresh IDs
// assigned past the current maximum, plus the assigned IDs in row order.
// The receiver is unchanged (existing rows are shared, not copied), so
// snapshots taken before the append stay valid — the copy-on-write
// discipline the delta engine's generation log relies on.
func (t *Table) AppendRows(rows [][]float64) (*Table, []int, error) {
	if len(rows) == 0 {
		return nil, nil, errors.New("dataset: no rows to append")
	}
	for i, row := range rows {
		if err := t.validateRow(row); err != nil {
			return nil, nil, fmt.Errorf("appended row %d: %w", i, err)
		}
	}
	ids := t.materializeIDs()
	nextID := t.NextID
	for _, id := range ids {
		if id >= nextID {
			nextID = id + 1
		}
	}
	out := &Table{
		Name:  t.Name,
		Attrs: t.Attrs,
		Rows:  make([][]float64, 0, t.N()+len(rows)),
		IDs:   make([]int, 0, t.N()+len(rows)),
	}
	out.Rows = append(out.Rows, t.Rows...)
	out.IDs = append(out.IDs, ids...)
	assigned := make([]int, len(rows))
	for i, row := range rows {
		cp := make([]float64, len(row))
		copy(cp, row)
		out.Rows = append(out.Rows, cp)
		out.IDs = append(out.IDs, nextID)
		assigned[i] = nextID
		nextID++
	}
	out.NextID = nextID
	return out, assigned, nil
}

// DeleteRows returns a new table without the tuples whose IDs are listed,
// plus the IDs that were actually present. Survivors keep their IDs —
// deletion never renumbers rows — so cached results, CSV exports and the
// delta engine's candidate pools keep speaking the same ID language across
// mutations. Unknown IDs are skipped (their absence from the returned
// slice reports it). Deleting every row is an error: the repository has no
// notion of an empty dataset.
func (t *Table) DeleteRows(ids []int) (*Table, []int, error) {
	if len(ids) == 0 {
		return nil, nil, errors.New("dataset: no IDs to delete")
	}
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	cur := t.materializeIDs()
	out := &Table{Name: t.Name, Attrs: t.Attrs, NextID: t.NextID,
		Rows: make([][]float64, 0, t.N()), IDs: make([]int, 0, t.N())}
	removed := make([]int, 0, len(ids))
	for i, row := range t.Rows {
		if cur[i] >= out.NextID {
			out.NextID = cur[i] + 1
		}
		if drop[cur[i]] {
			removed = append(removed, cur[i])
			continue
		}
		out.Rows = append(out.Rows, row)
		out.IDs = append(out.IDs, cur[i])
	}
	if out.N() == 0 {
		return nil, nil, errors.New("dataset: deletion would leave no rows")
	}
	return out, removed, nil
}

// Equal reports whether two tables are bit-for-bit identical: same name,
// attributes, rows (compared by IEEE-754 bits, so NaNs compare equal and
// -0 differs from +0), ID materialization state, and NextID watermark.
// This is deliberately stricter than semantic equality — the durability
// layer's recovery contract is that a replayed table is *the* table, not
// an equivalent one, and the crash-injection harness asserts exactly that.
func (t *Table) Equal(o *Table) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Name != o.Name || t.NextID != o.NextID ||
		len(t.Attrs) != len(o.Attrs) || len(t.Rows) != len(o.Rows) ||
		(t.IDs == nil) != (o.IDs == nil) || len(t.IDs) != len(o.IDs) {
		return false
	}
	for i, a := range t.Attrs {
		if a != o.Attrs[i] {
			return false
		}
	}
	for i, id := range t.IDs {
		if id != o.IDs[i] {
			return false
		}
	}
	for i, row := range t.Rows {
		if len(row) != len(o.Rows[i]) {
			return false
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(o.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// Bounds returns the per-attribute raw minima and maxima — the quantities
// the min-max normalization is defined by. The delta engine compares them
// across a mutation batch: equal bounds mean every surviving tuple keeps
// its normalized coordinates, the precondition of every containment-based
// revalidation argument.
func (t *Table) Bounds() (mins, maxs []float64, err error) {
	if t.N() == 0 || t.Dims() == 0 {
		return nil, nil, errors.New("dataset: empty table has no bounds")
	}
	d := t.Dims()
	mins = make([]float64, d)
	maxs = make([]float64, d)
	copy(mins, t.Rows[0])
	copy(maxs, t.Rows[0])
	for i, row := range t.Rows {
		if len(row) != d {
			return nil, nil, fmt.Errorf("dataset: row %d has %d values, want %d", i, len(row), d)
		}
		for j, v := range row {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	return mins, maxs, nil
}

// clamp bounds v into [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DOTLike generates a synthetic stand-in for the paper's US Department of
// Transportation flight-delay table: eight attributes over n flights.
//
// Attribute order (used by the experiments' "first d attributes"
// projections, chosen so that low-dimensional runs mix anti-correlated
// delay columns with the strongly correlated distance/air-time pair):
//
//	0 Arrival-Delay        (lower better)
//	1 Distance             (higher better)
//	2 Taxi-Out             (lower better)
//	3 Air-time             (higher better)
//	4 Dep-Delay            (lower better)
//	5 Actual-elapsed-time  (lower better)
//	6 Taxi-in              (lower better)
//	7 CRS-elapsed-time     (lower better)
//
// Marginals: distances are a lognormal core plus a dense long-haul cluster
// near the maximum (popular transcontinental routes), which recreates the
// real data's crowding at the top of the normalized scale; air time tracks
// distance at ~470 mph plus noise; taxi times are shifted exponentials;
// departure delay is a mixture of a tight "on time" band and an
// exponential late tail; arrival delay follows departure delay minus
// schedule slack. The dense top bands are what make score-regret
// optimizers fail on rank-regret (paper §1): thousands of flights sit
// within a sliver of score below the optimum.
func DOTLike(n int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		Name: "dot-like",
		Attrs: []Attr{
			{Name: "Arrival-Delay", HigherBetter: false},
			{Name: "Distance", HigherBetter: true},
			{Name: "Taxi-Out", HigherBetter: false},
			{Name: "Air-time", HigherBetter: true},
			{Name: "Dep-Delay", HigherBetter: false},
			{Name: "Actual-elapsed-time", HigherBetter: false},
			{Name: "Taxi-in", HigherBetter: false},
			{Name: "CRS-elapsed-time", HigherBetter: false},
		},
	}
	t.Rows = make([][]float64, n)
	for i := 0; i < n; i++ {
		// 12% of flights form a dense long-haul cluster just below the
		// distance maximum; the lognormal core stays beneath it.
		var distance float64
		if rng.Float64() < 0.12 {
			distance = clamp(2450+rng.NormFloat64()*120, 2000, 2800)
		} else {
			distance = clamp(math.Exp(6.2+0.6*rng.NormFloat64()), 100, 2600)
		}
		airTime := clamp(distance/7.8+rng.NormFloat64()*10, 20, 700)
		taxiOut := clamp(10+rng.ExpFloat64()*8, 5, 120)
		taxiIn := clamp(4+rng.ExpFloat64()*4, 2, 60)
		crsElapsed := clamp(airTime+25+rng.NormFloat64()*10, 30, 800)
		// 75% of departures sit in a tight on-time band; the rest form
		// the heavy late tail.
		var depDelay float64
		if rng.Float64() < 0.75 {
			depDelay = rng.NormFloat64()*4 - 2
		} else {
			depDelay = rng.ExpFloat64() * 40
		}
		depDelay = clamp(depDelay, -15, 500)
		arrDelay := clamp(depDelay-8+rng.NormFloat64()*9, -40, 500)
		actualElapsed := clamp(airTime+taxiOut+taxiIn+rng.NormFloat64()*5, 30, 900)
		t.Rows[i] = []float64{
			arrDelay, distance, taxiOut, airTime,
			depDelay, actualElapsed, taxiIn, crsElapsed,
		}
	}
	return t
}

// BNLike generates a synthetic stand-in for the paper's Blue Nile diamond
// catalog: five attributes over n diamonds.
//
// Attribute order (low-dimensional projections keep the tightly coupled
// carat/price pair the paper's motivation highlights):
//
//	0 Carat              (higher better)
//	1 Price              (lower better)
//	2 Depth              (higher better)
//	3 LengthWidthRatio   (higher better)
//	4 Table              (higher better)
//
// Carat is lognormal in [0.23, 21]; price follows a noisy power law of
// carat (the "0.5 vs 0.53 carat = +30% price" sensitivity of Section 6.1);
// depth, table and length/width ratio are narrow Gaussians.
func BNLike(n int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		Name: "bn-like",
		Attrs: []Attr{
			{Name: "Carat", HigherBetter: true},
			{Name: "Price", HigherBetter: false},
			{Name: "Depth", HigherBetter: true},
			{Name: "LengthWidthRatio", HigherBetter: true},
			{Name: "Table", HigherBetter: true},
		},
	}
	t.Rows = make([][]float64, n)
	for i := 0; i < n; i++ {
		carat := clamp(math.Exp(-0.6+0.55*rng.NormFloat64()), 0.23, 20.97)
		price := clamp(3500*math.Pow(carat, 1.9)*math.Exp(0.25*rng.NormFloat64()), 200, 3e6)
		depth := clamp(61.8+1.4*rng.NormFloat64(), 50, 75)
		lwr := clamp(1.01+0.06*rng.NormFloat64(), 0.75, 2.75)
		table := clamp(57+2*rng.NormFloat64(), 49, 79)
		t.Rows[i] = []float64{carat, price, depth, lwr, table}
	}
	return t
}

// Independent generates n rows of d attributes drawn i.i.d. uniform on
// [0,1] — the "independent" distribution of the skyline literature
// (Börzsönyi et al.), all higher-is-better.
func Independent(n, d int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := synthTable("independent", d)
	t.Rows = make([][]float64, n)
	for i := range t.Rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		t.Rows[i] = row
	}
	return t
}

// Correlated generates rows whose attributes move together: points cluster
// along the main diagonal (good tuples are good everywhere). Representative
// sets are tiny on such data.
func Correlated(n, d int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := synthTable("correlated", d)
	t.Rows = make([][]float64, n)
	for i := range t.Rows {
		base := rng.Float64()
		row := make([]float64, d)
		for j := range row {
			row[j] = clamp(base+rng.NormFloat64()*0.05, 0, 1)
		}
		t.Rows[i] = row
	}
	return t
}

// AntiCorrelated generates rows near the simplex Σx ≈ const where being
// good on one attribute means being bad on the others — the adversarial
// case where skylines (and representatives) are largest.
func AntiCorrelated(n, d int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := synthTable("anticorrelated", d)
	t.Rows = make([][]float64, n)
	for i := range t.Rows {
		// Sample a point uniformly on the simplex via normalized
		// exponentials, then place it at a Gaussian distance from the
		// Σx = 1 plane.
		row := make([]float64, d)
		sum := 0.0
		for j := range row {
			row[j] = rng.ExpFloat64()
			sum += row[j]
		}
		radius := clamp(0.5+rng.NormFloat64()*0.1, 0.2, 0.8) * float64(d)
		for j := range row {
			row[j] = clamp(row[j]/sum*radius, 0, 1)
		}
		t.Rows[i] = row
	}
	return t
}

// ByKind generates a synthetic table by kind name (case-insensitive):
// "dot", "bn", "independent", "correlated" or "anticorrelated". The purely
// synthetic kinds are generated with d attributes (default 4 when d <= 0);
// dot and bn have native schemas (8 and 5 attributes). In either case,
// 0 < d < native projects onto the first d attributes — the experiments'
// device. Every kind switch in the repository (CLIs, rrrd) goes through
// here.
func ByKind(kind string, n, d int, seed int64) (*Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: row count must be positive, got %d", n)
	}
	synthDims := d
	if synthDims <= 0 {
		synthDims = 4
	}
	// Reject impossible projections before paying for generation.
	nativeDims := map[string]int{"dot": 8, "bn": 5}
	if nd, fixed := nativeDims[strings.ToLower(kind)]; fixed && d > nd {
		return nil, fmt.Errorf("dataset: %s has only %d attributes, %d requested", strings.ToLower(kind), nd, d)
	}
	var t *Table
	switch strings.ToLower(kind) {
	case "dot":
		t = DOTLike(n, seed)
	case "bn":
		t = BNLike(n, seed)
	case "independent":
		t = Independent(n, synthDims, seed)
	case "correlated":
		t = Correlated(n, synthDims, seed)
	case "anticorrelated":
		t = AntiCorrelated(n, synthDims, seed)
	default:
		return nil, fmt.Errorf("dataset: unknown kind %q (want dot, bn, independent, correlated or anticorrelated)", kind)
	}
	if d > 0 && d < t.Dims() {
		return t.FirstDims(d)
	}
	return t, nil
}

func synthTable(name string, d int) *Table {
	attrs := make([]Attr, d)
	for j := range attrs {
		attrs[j] = Attr{Name: attrName(j), HigherBetter: true}
	}
	return &Table{Name: name, Attrs: attrs}
}

func attrName(j int) string {
	return "A" + strconv.Itoa(j+1)
}
