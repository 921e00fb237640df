package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"rrr/internal/core"
	"rrr/internal/paperfig"
)

func TestNewDatasetAssignsSequentialIDs(t *testing.T) {
	d, err := core.NewDataset([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	if d.N() != 3 || d.Dims() != 2 {
		t.Fatalf("got n=%d dims=%d, want 3, 2", d.N(), d.Dims())
	}
	for i := 0; i < d.N(); i++ {
		if d.Tuple(i).ID != i {
			t.Errorf("tuple %d has ID %d", i, d.Tuple(i).ID)
		}
	}
}

func TestNewDatasetRejectsBadInput(t *testing.T) {
	cases := map[string][][]float64{
		"empty":          {},
		"zero-dim":       {{}},
		"ragged":         {{1, 2}, {3}},
		"nan":            {{1, 2}, {3, nanValue()}},
		"infinite value": {{1, 2}, {3, infValue()}},
	}
	for name, points := range cases {
		if _, err := core.NewDataset(points); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
}

func nanValue() float64 { return float64NaN }
func infValue() float64 { return float64Inf }

var (
	float64NaN = func() float64 { var z float64; return z / z }() // quiet NaN without importing math
	float64Inf = func() float64 { var z float64; return 1 / z }()
)

func TestFromTuplesNonContiguousIDs(t *testing.T) {
	d, err := core.FromTuples([]core.Tuple{
		{ID: 10, Attrs: []float64{1, 0}},
		{ID: 20, Attrs: []float64{0, 1}},
	})
	if err != nil {
		t.Fatalf("FromTuples: %v", err)
	}
	got, ok := d.ByID(20)
	if !ok || got.Attrs[1] != 1 {
		t.Fatalf("ByID(20) = %v, %v", got, ok)
	}
	if _, ok := d.ByID(15); ok {
		t.Fatal("ByID(15) should not exist")
	}
	if idx := d.IndexOf(10); idx != 0 {
		t.Fatalf("IndexOf(10) = %d, want 0", idx)
	}
}

func TestFromTuplesRejectsDuplicateIDs(t *testing.T) {
	_, err := core.FromTuples([]core.Tuple{
		{ID: 1, Attrs: []float64{1}},
		{ID: 1, Attrs: []float64{2}},
	})
	if err == nil {
		t.Fatal("expected duplicate-ID error")
	}
}

func TestProjectKeepsIDsAndReordersColumns(t *testing.T) {
	d := core.MustNewDataset([][]float64{{1, 2, 3}, {4, 5, 6}})
	p, err := d.Project([]int{2, 0})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Dims() != 2 {
		t.Fatalf("dims = %d, want 2", p.Dims())
	}
	if got := p.Tuple(1).Attrs; !reflect.DeepEqual(got, []float64{6, 4}) {
		t.Fatalf("projected attrs = %v, want [6 4]", got)
	}
	if p.Tuple(1).ID != 1 {
		t.Fatalf("projection changed tuple ID to %d", p.Tuple(1).ID)
	}
	if _, err := d.Project([]int{3}); err == nil {
		t.Fatal("expected out-of-range column error")
	}
	if _, err := d.Project(nil); err == nil {
		t.Fatal("expected empty projection error")
	}
}

func TestPrefix(t *testing.T) {
	d := core.MustNewDataset([][]float64{{1}, {2}, {3}})
	p, err := d.Prefix(2)
	if err != nil {
		t.Fatalf("Prefix: %v", err)
	}
	if p.N() != 2 || p.Tuple(1).Attrs[0] != 2 {
		t.Fatalf("unexpected prefix: %+v", p.Tuples())
	}
	if _, err := d.Prefix(0); err == nil {
		t.Fatal("expected error for prefix 0")
	}
	if _, err := d.Prefix(4); err == nil {
		t.Fatal("expected error for prefix beyond n")
	}
}

func TestLinearFuncScoreAndValidate(t *testing.T) {
	f := core.NewLinearFunc(1, 1)
	tup := core.Tuple{ID: 0, Attrs: []float64{0.67, 0.6}}
	if got := f.Score(tup); got != 1.27 {
		t.Fatalf("Score = %v, want 1.27", got)
	}
	if err := f.Validate(2); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := f.Validate(3); err == nil {
		t.Fatal("expected arity error")
	}
	if err := core.NewLinearFunc(0, 0).Validate(2); err == nil {
		t.Fatal("expected all-zero error")
	}
	if err := core.NewLinearFunc(1, -1).Validate(2); err == nil {
		t.Fatal("expected negative-weight error")
	}
}

func TestNormalizePreservesDirection(t *testing.T) {
	f := core.NewLinearFunc(3, 4).Normalize()
	if f.W[0] != 0.6 || f.W[1] != 0.8 {
		t.Fatalf("Normalize = %v, want [0.6 0.8]", f.W)
	}
	z := core.NewLinearFunc(0, 0).Normalize()
	if z.W[0] != 0 || z.W[1] != 0 {
		t.Fatalf("Normalize of zero vector = %v", z.W)
	}
}

// sortIDsByFunc is the brute-force reference ordering used in several tests.
func sortIDsByFunc(d *core.Dataset, f core.LinearFunc) []int {
	ids := make([]int, d.N())
	tuples := make([]core.Tuple, d.N())
	copy(tuples, d.Tuples())
	sort.Slice(tuples, func(i, j int) bool { return core.Outranks(f, tuples[i], tuples[j]) })
	for i, t := range tuples {
		ids[i] = t.ID
	}
	return ids
}

func TestPaperOrderings(t *testing.T) {
	d := paperfig.Figure1()
	if got := sortIDsByFunc(d, core.NewLinearFunc(1, 1)); !reflect.DeepEqual(got, paperfig.OrderingSum) {
		t.Errorf("ordering under x1+x2 = %v, want %v", got, paperfig.OrderingSum)
	}
	if got := sortIDsByFunc(d, core.NewLinearFunc(1, 0)); !reflect.DeepEqual(got, paperfig.OrderingX1) {
		t.Errorf("ordering under x1 = %v, want %v", got, paperfig.OrderingX1)
	}
}

func TestRankMatchesOrdering(t *testing.T) {
	d := paperfig.Figure1()
	f := core.NewLinearFunc(1, 1)
	for wantRank, id := range paperfig.OrderingSum {
		got, err := core.RankOfID(d, f, id)
		if err != nil {
			t.Fatalf("RankOfID(%d): %v", id, err)
		}
		if got != wantRank+1 {
			t.Errorf("rank of t%d = %d, want %d", id, got, wantRank+1)
		}
	}
}

func TestRankRegretDefinition1(t *testing.T) {
	d := paperfig.Figure1()
	f := core.NewLinearFunc(1, 0)
	// Paper: "for any set X containing t7 or t1, for f = x1, RR_f(X) <= 2".
	for _, ids := range [][]int{{7}, {1}, {1, 4}, {7, 6, 4}} {
		rr, err := core.RankRegret(d, f, ids)
		if err != nil {
			t.Fatalf("RankRegret(%v): %v", ids, err)
		}
		if rr > 2 {
			t.Errorf("RankRegret(%v) = %d, want <= 2", ids, rr)
		}
	}
	rr, err := core.RankRegret(d, f, []int{6})
	if err != nil {
		t.Fatalf("RankRegret: %v", err)
	}
	if rr != 7 {
		t.Errorf("RankRegret({t6}) under x1 = %d, want 7 (t6 is last)", rr)
	}
}

func TestRankRegretEmptyAndUnknown(t *testing.T) {
	d := paperfig.Figure1()
	f := core.NewLinearFunc(1, 1)
	rr, err := core.RankRegret(d, f, nil)
	if err != nil || rr != d.N()+1 {
		t.Fatalf("empty X: rr=%d err=%v, want %d, nil", rr, err, d.N()+1)
	}
	if _, err := core.RankRegret(d, f, []int{99}); err == nil {
		t.Fatal("expected unknown-ID error")
	}
	if _, err := core.RankOfID(d, f, 99); err == nil {
		t.Fatal("expected unknown-ID error")
	}
}

func TestOutranksTieBreakDeterministic(t *testing.T) {
	a := core.Tuple{ID: 1, Attrs: []float64{0.5, 0.5}}
	b := core.Tuple{ID: 2, Attrs: []float64{0.5, 0.5}}
	f := core.NewLinearFunc(1, 1)
	if !core.Outranks(f, a, b) {
		t.Error("smaller ID must win ties")
	}
	if core.Outranks(f, b, a) {
		t.Error("tie-break must be antisymmetric")
	}
}

// Property: ranks under any positive function form a permutation of 1..n.
func TestRanksArePermutationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		dims := 1 + r.Intn(4)
		points := make([][]float64, n)
		for i := range points {
			p := make([]float64, dims)
			for j := range p {
				p[j] = r.Float64()
			}
			points[i] = p
		}
		d := core.MustNewDataset(points)
		w := make([]float64, dims)
		for j := range w {
			w[j] = r.Float64() + 0.01
		}
		f := core.NewLinearFunc(w...)
		seen := make([]bool, n+1)
		for i := 0; i < n; i++ {
			rk := core.Rank(d, f, d.Tuple(i))
			if rk < 1 || rk > n || seen[rk] {
				return false
			}
			seen[rk] = true
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: RankRegret(X) equals the minimum individual rank over X.
func TestRankRegretEqualsMinRankProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		}
		d := core.MustNewDataset(points)
		f := core.NewLinearFunc(r.Float64()+0.01, r.Float64()+0.01, r.Float64()+0.01)
		size := 1 + r.Intn(n)
		ids := r.Perm(n)[:size]
		want := n + 1
		for _, id := range ids {
			rk, err := core.RankOfID(d, f, id)
			if err != nil {
				return false
			}
			if rk < want {
				want = rk
			}
		}
		got, err := core.RankRegret(d, f, ids)
		return err == nil && got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleCloneIndependent(t *testing.T) {
	orig := core.Tuple{ID: 5, Attrs: []float64{1, 2}}
	cp := orig.Clone()
	cp.Attrs[0] = 99
	if orig.Attrs[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestStringFormats(t *testing.T) {
	tup := core.Tuple{ID: 3, Attrs: []float64{0.67, 0.6}}
	if got := tup.String(); got != "t3(0.67, 0.6)" {
		t.Errorf("Tuple.String = %q", got)
	}
	f := core.NewLinearFunc(0.5, 0.5)
	if got := f.String(); got != "f(w=0.5,0.5)" {
		t.Errorf("LinearFunc.String = %q", got)
	}
}

func TestSubset(t *testing.T) {
	d := paperfig.Figure1()
	ts, err := d.Subset([]int{3, 1})
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	if len(ts) != 2 || ts[0].ID != 3 || ts[1].ID != 1 {
		t.Fatalf("Subset = %v", ts)
	}
	if _, err := d.Subset([]int{42}); err == nil {
		t.Fatal("expected unknown-ID error")
	}
}

// Property: ScanOrder is a permutation, and norms[j] is at least the
// Norm of every tuple from position j on, non-increasing, with +Inf for
// tuples outside Norm's range. Inputs mix zero rows, duplicates, values
// too small or too large to square safely, and near-equal norms.
func TestScanOrderBoundsEveryLaterNorm(t *testing.T) {
	values := []float64{0, 0.25, 0.5, 1, 0x1p-501, 0x1p501, 1 - 0x1p-52}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		points := make([][]float64, 1+rng.Intn(40))
		for i := range points {
			points[i] = []float64{values[rng.Intn(len(values))], values[rng.Intn(len(values))]}
		}
		d := core.MustNewDataset(points)
		order, norms := d.ScanOrder()
		seen := make([]bool, d.N())
		for j, i := range order {
			if seen[i] {
				return false
			}
			seen[i] = true
			for _, later := range order[j:] {
				if core.Norm(d.Tuple(int(later)).Attrs) > norms[j] {
					return false
				}
			}
			if j > 0 && norms[j] > norms[j-1] {
				return false
			}
		}
		return len(order) == d.N()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if n := core.Norm([]float64{0x1p-501, 1}); n != math.Inf(1) {
		t.Fatalf("Norm with a value below 2^-500 = %v, want +Inf", n)
	}
}
