// Package cover implements the covering machinery the RRR algorithms reduce
// to: one-dimensional interval covering for 2DRRR (Section 4) and hitting
// sets over k-set collections for MDRRR (Section 5.2).
//
// Two interval-cover algorithms are provided, each with one body that runs
// on a Scratch arena; the plain functions run it on a temporary one.
// CoverMaxGain is the paper's Algorithm 2: repeatedly pick the interval
// covering the largest uncovered length, maintaining the uncovered space
// as a sorted list probed by binary search. CoverOptimal is the classic
// single-sweep greedy for covering a segment. Both are meant to be optimal
// in output size (the paper claims its greedy is; the classic result is
// standard), so they serve as mutual cross-checks and as an ablation pair.
//
// Two hitting-set implementations are provided. GreedyHittingSet is the
// standard ln(n)-approximation. BGHittingSet follows Brönnimann–Goodrich,
// the ε-net weight-doubling algorithm the paper cites for its O(d·log(d·c))
// ratio (Algorithm 3's "select the ε-net / double the weights" loop).
package cover

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Interval is a closed angular interval with the ID of the tuple whose
// range it is.
type Interval struct {
	ID     int
	Lo, Hi float64
}

// contactTol absorbs floating-point slack where two intervals are supposed
// to touch exactly (a tuple's range ending at the angle the next begins).
const contactTol = 1e-12

// CoverOptimal covers [lo, hi] with the fewest intervals using the classic
// sweep: repeatedly extend coverage with the interval reaching farthest
// right among those starting at or before the current frontier. Ties are
// broken toward the smaller ID. It returns the chosen IDs in sweep order,
// or an error when the intervals cannot cover the segment. It is
// CoverOptimalScratch on a temporary arena.
func CoverOptimal(intervals []Interval, lo, hi float64) ([]int, error) {
	var sc Scratch
	return CoverOptimalScratch(intervals, lo, hi, &sc)
}

// CoverMaxGain is the paper's Algorithm 2 greedy: at every iteration select
// the interval with the maximum coverage of the still-uncovered space, then
// remove that coverage. Ties break toward the smaller ID. It is
// CoverMaxGainScratch on a temporary arena.
//
// Reproduction note: the paper claims this greedy is optimal (its Figure 5
// argument), but it is not, even on ranges produced by Algorithm 1 — e.g.
// {[0,.42], [0,.91], [.42,1.49], [.91,π/2], [1.49,π/2]} admits a 2-cover
// {[0,.91],[.91,π/2]} while max-gain picks the long middle interval first
// and needs 3. CoverOptimal provides the guaranteed-minimal cover; both are
// exposed so the divergence can be measured (see EXPERIMENTS.md).
func CoverMaxGain(intervals []Interval, lo, hi float64) ([]int, error) {
	var sc Scratch
	return CoverMaxGainScratch(intervals, lo, hi, &sc)
}

// GreedyHittingSet returns a set of element IDs intersecting every input
// set, chosen by the classic greedy rule: repeatedly take the element
// contained in the most not-yet-hit sets (ties toward the smaller ID). The
// approximation ratio is H(m) ≈ ln m. An empty input yields an empty
// hitting set; a nil/empty member set is an error (it can never be hit).
func GreedyHittingSet(sets [][]int) ([]int, error) {
	for i, s := range sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("cover: set %d is empty and cannot be hit", i)
		}
	}
	if len(sets) == 0 {
		return []int{}, nil
	}
	// element -> indexes of sets containing it
	containing := make(map[int][]int)
	for i, s := range sets {
		for _, e := range s {
			containing[e] = append(containing[e], i)
		}
	}
	count := make(map[int]int, len(containing))
	for e, list := range containing {
		count[e] = len(list)
	}
	hit := make([]bool, len(sets))
	remaining := len(sets)
	var out []int
	for remaining > 0 {
		bestE, bestC := 0, -1
		for e, c := range count {
			if c > bestC || (c == bestC && e < bestE) {
				bestE, bestC = e, c
			}
		}
		if bestC <= 0 {
			return nil, errors.New("cover: internal error, no element hits the remaining sets")
		}
		out = append(out, bestE)
		for _, si := range containing[bestE] {
			if hit[si] {
				continue
			}
			hit[si] = true
			remaining--
			for _, e := range sets[si] {
				count[e]--
			}
		}
		delete(count, bestE)
	}
	sort.Ints(out)
	return out, nil
}

// BGOptions tunes BGHittingSet.
type BGOptions struct {
	// Seed drives the weighted ε-net sampling; runs are deterministic for
	// a fixed seed.
	Seed int64
	// NetConst scales the ε-net sample size m = NetConst·(vc/ε)·ln(1/ε+e).
	// The default (0) means 1.
	NetConst float64
}

// BGHittingSet implements the Brönnimann–Goodrich ε-net algorithm the paper
// adopts for MDRRR: guess the optimal size c (doubling), set ε = 1/(2c),
// and repeat { draw a weighted ε-net; if it hits everything return it,
// otherwise double the weights of a missed set } within the theory's
// iteration budget before raising the guess. vcDim is the VC dimension of
// the set system — d for k-sets defined by half-spaces (Section 5.2).
func BGHittingSet(sets [][]int, vcDim int, opt BGOptions) ([]int, error) {
	for i, s := range sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("cover: set %d is empty and cannot be hit", i)
		}
	}
	if len(sets) == 0 {
		return []int{}, nil
	}
	if vcDim < 1 {
		vcDim = 1
	}
	netConst := opt.NetConst
	if netConst <= 0 {
		netConst = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	var universe []int
	seen := make(map[int]bool)
	for _, s := range sets {
		for _, e := range s {
			if !seen[e] {
				seen[e] = true
				universe = append(universe, e)
			}
		}
	}
	sort.Ints(universe)
	index := make(map[int]int, len(universe))
	for i, e := range universe {
		index[e] = i
	}

	n := len(universe)
	weights := make([]float64, n)

	for c := 1; ; c *= 2 {
		if c >= n {
			return append([]int(nil), universe...), nil // trivial hitting set
		}
		eps := 1.0 / (2 * float64(c))
		m := int(math.Ceil(netConst * float64(vcDim) / eps * math.Log(1/eps+math.E)))
		if m < 1 {
			m = 1
		}
		if m >= n {
			// A net this large is the whole universe; raising c further
			// only grows it. Check whether the universe hits (it does).
			return append([]int(nil), universe...), nil
		}
		for i := range weights {
			weights[i] = 1
		}
		budget := int(4*float64(c)*math.Log2(float64(n)/float64(c))) + 16
		for iter := 0; iter < budget; iter++ {
			net := drawWeightedNet(universe, weights, m, rng)
			missed := firstMissed(sets, net)
			if missed == -1 {
				out := make([]int, 0, len(net))
				for e := range net {
					out = append(out, e)
				}
				sort.Ints(out)
				return out, nil
			}
			// Double the weights of the missed set's elements; renormalize
			// when weights grow enormous to avoid overflow.
			var maxW float64
			for _, e := range sets[missed] {
				i := index[e]
				weights[i] *= 2
				if weights[i] > maxW {
					maxW = weights[i]
				}
			}
			if maxW > 1e200 {
				for i := range weights {
					weights[i] /= 1e100
				}
			}
		}
	}
}

// drawWeightedNet samples m elements with replacement proportionally to
// weight and returns the distinct draws.
func drawWeightedNet(universe []int, weights []float64, m int, rng *rand.Rand) map[int]bool {
	prefix := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		sum += w
		prefix[i] = sum
	}
	net := make(map[int]bool, m)
	for j := 0; j < m; j++ {
		x := rng.Float64() * sum
		i := sort.SearchFloat64s(prefix, x)
		if i >= len(universe) {
			i = len(universe) - 1
		}
		net[universe[i]] = true
	}
	return net
}

// firstMissed returns the index of the first set disjoint from the net, or
// -1 when the net is a hitting set.
func firstMissed(sets [][]int, net map[int]bool) int {
	for i, s := range sets {
		found := false
		for _, e := range s {
			if net[e] {
				found = true
				break
			}
		}
		if !found {
			return i
		}
	}
	return -1
}

// VerifyHits reports whether ids intersect every set — the acceptance
// criterion shared by both hitting-set algorithms and used in tests.
func VerifyHits(sets [][]int, ids []int) bool {
	member := make(map[int]bool, len(ids))
	for _, id := range ids {
		member[id] = true
	}
	for _, s := range sets {
		ok := false
		for _, e := range s {
			if member[e] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
