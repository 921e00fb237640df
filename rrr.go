package rrr

import (
	"fmt"
	"strings"
	"time"

	"rrr/internal/core"
	"rrr/internal/delta"
	"rrr/internal/skyline"
	"rrr/internal/topk"
)

// Tuple is one database item: an ID plus a point in R^d.
type Tuple = core.Tuple

// Dataset is an immutable collection of tuples.
type Dataset = core.Dataset

// LinearFunc is a linear ranking function f(t) = Σ w_i·t[i].
type LinearFunc = core.LinearFunc

// NewDataset builds a dataset from raw points, assigning IDs 0..n-1.
// Points should be normalized so that higher values are preferred on every
// attribute (see Table.Normalize for raw data).
func NewDataset(points [][]float64) (*Dataset, error) { return core.NewDataset(points) }

// FromTuples builds a dataset from pre-labelled tuples with unique IDs.
func FromTuples(ts []Tuple) (*Dataset, error) { return core.FromTuples(ts) }

// NewLinearFunc builds a ranking function from non-negative weights.
func NewLinearFunc(w ...float64) LinearFunc { return core.NewLinearFunc(w...) }

// Algorithm names an RRR algorithm. The zero value is not a valid
// algorithm — ParseAlgorithm returns it alongside an error — but it
// resolves like AlgoAuto wherever it reaches a solve, so an unset
// WithAlgorithm keeps its meaning.
type Algorithm string

const (
	// AlgoAuto picks 2DRRR for 2-D datasets and MDRC otherwise — the
	// paper's recommendation for practice ("MDRC seems to be scalable: in
	// all experiments, within a few seconds, it could find a small subset
	// with small rank-regret").
	AlgoAuto Algorithm = "auto"
	// Algo2DRRR is the 2-D sweep + interval-cover algorithm (Section 4).
	Algo2DRRR Algorithm = "2drrr"
	// AlgoMDRRR is the k-set hitting-set algorithm (Section 5.2).
	AlgoMDRRR Algorithm = "mdrrr"
	// AlgoMDRC is the function-space partitioning algorithm (Section 5.3).
	AlgoMDRC Algorithm = "mdrc"
)

// String returns the user-facing algorithm name. The zero value reports
// "auto" — it dispatches like AlgoAuto — so logs and the daemon's /stats
// never print a blank algorithm name.
func (a Algorithm) String() string {
	if a == "" {
		return string(AlgoAuto)
	}
	return string(a)
}

// Resolve applies the auto-dispatch rule to a dataset dimensionality:
// AlgoAuto (and the zero value) becomes Algo2DRRR for 2-D data and
// AlgoMDRC otherwise; explicit choices pass through. The Solver and the
// rrrd daemon's cache keys share this single source of truth.
func (a Algorithm) Resolve(dims int) Algorithm {
	if a != AlgoAuto && a != "" {
		return a
	}
	if dims == 2 {
		return Algo2DRRR
	}
	return AlgoMDRC
}

// ParseAlgorithm resolves a user-facing algorithm name ("auto", "2drrr",
// "mdrrr", "mdrc", case-insensitive, "" = auto) to an Algorithm. CLIs and
// the rrrd daemon share this mapping. On error it returns the zero
// Algorithm — which is not a valid choice — never a usable value.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToLower(name) {
	case "", string(AlgoAuto):
		return AlgoAuto, nil
	case string(Algo2DRRR):
		return Algo2DRRR, nil
	case string(AlgoMDRRR):
		return AlgoMDRRR, nil
	case string(AlgoMDRC):
		return AlgoMDRC, nil
	}
	return "", fmt.Errorf("rrr: unknown algorithm %q (want auto, 2drrr, mdrrr or mdrc)", name)
}

// WithSamplerMaxDraws caps K-SETr's total draws (default 2,000,000) as a
// soft cap: reaching it truncates the k-set collection rather than failing
// the solve (contrast WithDrawBudget, the hard budget). Zero or negative
// restores the default.
func WithSamplerMaxDraws(n int) Option { return func(c *config) { c.softMaxDraws = n } }

// Result is the output of a solve: the chosen tuple IDs (ascending), the
// algorithm that produced them, and its work counters.
type Result struct {
	IDs       []int
	Algorithm Algorithm
	// K is the rank target the result satisfies (set by Solve; the
	// achieved k for results carried inside dual-search errors). Solver.
	// Revalidate keys its containment tests on it.
	K int
	// KSets is the number of k-sets MDRRR hit (0 for other algorithms).
	KSets int
	// Nodes is the number of recursion nodes MDRC visited (0 otherwise).
	Nodes int
	// Draws is the number of ranking functions K-SETr sampled (0 for
	// algorithms other than MDRRR).
	Draws int
	// Elapsed is the wall-clock time of the solve.
	Elapsed time.Duration
	// revalPool is the containment pool recorded under
	// WithDeltaMaintenance, consumed (and advanced) by Solver.Revalidate.
	revalPool *delta.Pool
}

// TopK returns the IDs of the k best tuples under f, best first.
func TopK(d *Dataset, f LinearFunc, k int) []int { return topk.TopK(d, f, k) }

// Rank returns the 1-based rank of the tuple with the given ID under f.
func Rank(d *Dataset, f LinearFunc, id int) (int, error) { return core.RankOfID(d, f, id) }

// RankRegret returns RR_f(X): the best rank any member of ids achieves
// under f (Definition 1).
func RankRegret(d *Dataset, f LinearFunc, ids []int) (int, error) {
	return core.RankRegret(d, f, ids)
}

// Skyline returns the Pareto-optimal tuple IDs — the maxima representation
// for monotone ranking functions.
func Skyline(d *Dataset) []int { return skyline.Skyline(d) }

// ConvexHull2D returns the 2-D maxima chain — the order-1 rank-regret
// representative for linear functions — in sweep order.
func ConvexHull2D(d *Dataset) ([]int, error) { return skyline.ConvexHull2D(d) }
