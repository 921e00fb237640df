package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// AlwaysOutranks reports whether u outranks t under every linear ranking
// function with non-negative weights (at least one positive), per the
// library's deterministic tie-break: u ≥ t componentwise, and either
// strictly everywhere or winning the equal-score ID tie-break.
//
// The test is sound and complete for the paper's function space:
// componentwise u ≥ t makes every score difference non-negative; the
// difference is strictly positive for every admissible f only when u > t
// everywhere (weights may be zero on any proper attribute subset), and an
// exact score tie goes to the smaller ID.
func AlwaysOutranks(u, t Tuple) bool {
	strict := true
	for j, v := range u.Attrs {
		switch {
		case v < t.Attrs[j]:
			return false
		case v == t.Attrs[j]:
			strict = false
		}
	}
	return strict || u.ID < t.ID
}

// DominatorCounts returns, for each tuple by slice index, the number of
// tuples of d that AlwaysOutrank it. The first call builds the counts
// (countDominators) and publishes them; every later call, concurrent ones
// included, shares them: 4 bytes per tuple. Callers must not modify the
// slice.
//
// The build checks ctx between merge levels. A build whose context dies
// returns the context's error and publishes nothing, so the next call
// builds again. Two first callers that race both build; their counts are
// identical and either may be kept.
func (d *Dataset) DominatorCounts(ctx context.Context) ([]int32, error) {
	if p := d.dominators.Load(); p != nil {
		return *p, nil
	}
	counts, err := countDominators(ctx, d.tuples)
	if err != nil {
		return nil, err
	}
	d.dominators.Store(&counts)
	return counts, nil
}

// HasDominatorCounts reports whether DominatorCounts has already built the
// counts, so that a caller can use them without paying for the build.
func (d *Dataset) HasDominatorCounts() bool { return d.dominators.Load() != nil }

// skyband is one k-skyband's scan order; see KSkyband.
type skyband struct {
	k     int
	order []int32
	norms []float64
}

// KSkyband returns the scan order of d's k-skyband, the tuples with fewer
// than k dominators: ScanOrder's positions restricted to those tuples, and
// for each band position the largest Norm from there to the end of the
// band. Every member of every top-k lies in the band, because a tuple that
// k others AlwaysOutrank ranks below k under every linear function; so a
// top-k scan over the band returns exactly the full data's top-k. It
// builds the dominator counts if needed, and returns their error.
//
// The dataset keeps the most recent band in a single slot, so repeated
// calls at one k build it once. Callers must not modify either slice.
func (d *Dataset) KSkyband(ctx context.Context, k int) ([]int32, []float64, error) {
	if b := d.band.Load(); b != nil && b.k == k {
		return b.order, b.norms, nil
	}
	counts, err := d.DominatorCounts(ctx)
	if err != nil {
		return nil, nil, err
	}
	full, _ := d.ScanOrder()
	size := 0
	for _, c := range counts {
		if int(c) < k {
			size++
		}
	}
	b := &skyband{k: k, order: make([]int32, 0, size), norms: make([]float64, size)}
	for _, i := range full {
		if int(counts[i]) < k {
			b.order = append(b.order, i)
		}
	}
	// The suffix maxima of the members' own norms bound every later band
	// tuple, which is all topk's early exit needs; filtering keeps
	// ScanOrder's descending-norm order, so the bound still falls along
	// the scan.
	for j := size - 1; j >= 0; j-- {
		b.norms[j] = Norm(d.tuples[b.order[j]].Attrs)
		if j+1 < size {
			b.norms[j] = max(b.norms[j], b.norms[j+1])
		}
	}
	d.band.Store(b)
	return b.order, b.norms, nil
}

// DominatorBuildCost estimates what the first DominatorCounts call on d
// costs, in units of one tuple scored by a top-k scan (topk reads a tuple,
// scores it and compares it with the heap's root). It is the build's
// operation count, buildOps, divided by buildOpsPerScore, the measured
// ratio of one build operation's time to one scored tuple's. K-SETr
// compares its scan work against it to decide when the build pays.
func (d *Dataset) DominatorBuildCost() int {
	return buildOps(len(d.tuples), d.dims) / buildOpsPerScore
}

// buildOpsPerScore is how many of buildOps' operations take as long as one
// tuple scored by a top-k scan, measured once on BN-like data against
// kset's full-data scans on a 2-vCPU Xeon VM (DESIGN.md §3 records the
// runs). With it the estimate is 0.9–2.6 times the measured build at
// d = 3 and 1.6–3.9 times at d = 2, 4 and 5, so K-SETr moves to the band
// late rather than early.
const buildOpsPerScore = 2

// buildOps is countDominators' operation count on n tuples of dims
// attributes: dims radix sorts of up to 8 passes over n tuples, plus the
// counting cost of the whole set.
func buildOps(n, dims int) int {
	ops, _ := countCost(n, dims, n)
	return dims*n*8 + ops
}

// countCost is solve's operation count on m points with left ranks still
// to compare, in a dataset of n tuples, and whether the pairwise scan is
// the cheaper strategy there. The pairwise scan checks m²/2 pairs on
// left−1 ranks, each check counted as two operations. A Fenwick scan (two
// ranks left) costs log₂n tree steps per point. A merge sort (more ranks)
// moves each point once on each of its L = log₂m levels, and at the level
// of width w hands it to a sub-problem of 2w points on one rank fewer:
// summed over the levels that is m·L + m·(1 + log₂n)·L^(left−2)/(left−2)!
// operations. The result saturates at 2⁵⁰, so a large left never
// overflows.
func countCost(m, left, n int) (ops int, pairwise bool) {
	const limit = 1 << 50
	if left <= 1 {
		return m, false
	}
	fm, levels := float64(m), float64(bits.Len(uint(m)))
	pairs := fm * fm * float64(left-1)
	divide := fm * float64(bits.Len(uint(n)))
	if left > 2 {
		sub := fm * (1 + float64(bits.Len(uint(n))))
		for i := 1; i <= left-2; i++ {
			sub *= levels / float64(i)
		}
		divide = fm*levels + sub
	}
	if pairs <= divide {
		return int(min(pairs, limit)), true
	}
	return int(min(divide, limit)), false
}

// countDominators counts each tuple's AlwaysOutranks dominators.
//
// It first replaces each attribute by a rank: the tuple's position when
// the tuples are ordered by (value ascending, ID descending). Then u
// AlwaysOutranks t exactly when u's rank is higher than t's on every
// attribute. If u AlwaysOutranks t, each attribute has u ≥ t, and where
// they are equal u has the smaller ID, which orders it later. Conversely,
// higher ranks everywhere give u ≥ t everywhere, and if some attribute is
// equal the higher rank there means u has the smaller ID. Ranks are a
// permutation per attribute, so no ties are left.
//
// Strict dominance counting on permutations is then Bentley's divide and
// conquer (see solve): O(n·log^(d−1) n) for d ≥ 2, falling back to a
// pairwise scan where that is cheaper, for large d. The scratch is one
// int32 and one uint64 allocation; only the n counts are retained.
func countDominators(ctx context.Context, ts []Tuple) ([]int32, error) {
	n, dims := len(ts), len(ts[0].Attrs)
	// Each recursion depth that merges (all but the last two ranks) needs
	// a merge buffer and a sub-problem buffer.
	depths := max(dims-2, 0)
	scratch := make([]int32, dims*n+3*n+2*depths*n+n+1)
	c := &domCounter{n: n, dims: dims, counts: make([]int32, n)}
	c.rank, scratch = scratch[:dims*n], scratch[dims*n:]
	top, byID, idx, scratch := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	c.bufs, c.bit = scratch[:2*depths*n], scratch[2*depths*n:]
	keys := make([]uint64, 2*n)
	sorted := true
	for i := range byID {
		byID[i] = int32(n - 1 - i)
		sorted = sorted && ts[i].ID == i
	}
	if !sorted {
		slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(ts[b].ID, ts[a].ID) })
	}
	for j := range dims {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: dominator count canceled: %w", err)
		}
		rankAttribute(ts, j, byID, c.rank[j*n:(j+1)*n], top, idx, keys[:n], keys[n:])
	}
	// The top level reads the tuples by descending first rank.
	for i, r := range c.rank[:n] {
		top[n-1-int(r)] = int32(i)
	}
	if err := c.solve(ctx, top, 0, true); err != nil {
		return nil, err
	}
	return c.counts, nil
}

// rankAttribute writes each tuple's rank on attribute j into rank: its
// position when the tuples are ordered by (value ascending, ID
// descending). byID lists the tuple indexes by descending ID; idx, idx2,
// keys and keys2 are scratch of len(ts) entries.
//
// It is an LSD radix sort, 8 bits a pass, of the values' order-preserving
// bit patterns (−0 as +0), starting from byID: each pass is stable, so
// equal values keep their descending-ID order. A pass whose byte is the
// same for every value is skipped.
func rankAttribute(ts []Tuple, j int, byID, rank, idx, idx2 []int32, keys, keys2 []uint64) {
	for p, i := range byID {
		v := ts[i].Attrs[j]
		b := math.Float64bits(v)
		switch {
		case v == 0:
			b = 1 << 63
		case b>>63 != 0:
			b = ^b
		default:
			b |= 1 << 63
		}
		keys[p], idx[p] = b, i
	}
	for shift := 0; shift < 64; shift += 8 {
		var count [256]int
		for _, k := range keys {
			count[byte(k>>shift)]++
		}
		if count[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for b, c := range count {
			count[b], sum = sum, sum+c
		}
		for p, k := range keys {
			b := byte(k >> shift)
			keys2[count[b]], idx2[count[b]] = k, idx[p]
			count[b]++
		}
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
	}
	for pos, i := range idx {
		rank[i] = int32(pos)
	}
}

// domCounter is countDominators' working state. rank[j·n+i] is tuple i's
// rank on attribute j; bufs holds each merging recursion depth's merge
// and sub-problem buffers, n entries each; bit is the Fenwick tree of the
// last rank.
type domCounter struct {
	n, dims int
	rank    []int32
	bufs    []int32
	bit     []int32
	counts  []int32
}

// solve adds to each query point of s its number of data points with a
// higher rank on every attribute j, j+1, …, dims−1. s is ordered by
// descending rank j. At the top level (top) every entry is a tuple index
// that is both a data point and a query; below it an entry v ≥ 0 is the
// query v and an entry v < 0 is the data point ^v.
//
// With more than two ranks left, solve merge-sorts s by rank j+1,
// bottom-up. The two blocks of a merge are consecutive in s, so the
// left one holds the higher rank j: its data points against the right
// block's queries form a sub-problem on the ranks from j+1 on, already
// ordered by rank j+1 by the merge itself, and solve recurses on it. Each
// pair of points meets in exactly one merge. With two ranks left, a
// Fenwick tree over the last rank counts the pairs in one pass.
func (c *domCounter) solve(ctx context.Context, s []int32, j int, top bool) error {
	left := c.dims - j
	if left == 1 {
		// Only a one-attribute dataset gets here: the counts are the
		// positions in descending order.
		for pos, p := range s {
			c.counts[p] = int32(pos)
		}
		return nil
	}
	if _, byPairs := countCost(len(s), left, c.n); byPairs {
		c.pairwise(ctx, s, j, top)
		if top {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: dominator count canceled: %w", err)
			}
		}
		return nil
	}
	if left == 2 {
		c.fenwick(s, j+1, top)
		return nil
	}
	next := c.rank[(j+1)*c.n : (j+2)*c.n]
	buf := c.bufs[2*j*c.n : 2*(j+1)*c.n]
	src, dst := s, buf[:len(s)]
	for w := 1; w < len(s); w *= 2 {
		if top {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: dominator count canceled: %w", err)
			}
		}
		for lo := 0; lo < len(s); lo += 2 * w {
			mid, hi := min(lo+w, len(s)), min(lo+2*w, len(s))
			cross := buf[c.n:c.n]
			data, queries := 0, 0
			x, y := lo, mid
			for out := lo; out < hi; out++ {
				if y == hi || (x < mid && next[index(src[x])] > next[index(src[y])]) {
					v := src[x]
					dst[out] = v
					x++
					if top || v < 0 {
						cross = append(cross, ^int32(index(v)))
						data++
					}
				} else {
					v := src[y]
					dst[out] = v
					y++
					if top || v >= 0 {
						cross = append(cross, v)
						queries++
					}
				}
			}
			if data > 0 && queries > 0 {
				if err := c.solve(ctx, cross, j+1, false); err != nil {
					return err
				}
			}
		}
		src, dst = dst, src
	}
	return nil
}

// index decodes a solve entry to its tuple index.
func index(v int32) int {
	if v < 0 {
		return int(^v)
	}
	return int(v)
}

// pairwise is solve by direct comparison: each query against every
// earlier data point of s, on the ranks after j (earlier entries already
// have the higher rank j). At the top level it checks ctx every 256 rows.
func (c *domCounter) pairwise(ctx context.Context, s []int32, j int, top bool) {
	for qi, v := range s {
		if !top && v < 0 {
			continue
		}
		if top && qi%256 == 0 && ctx.Err() != nil {
			return
		}
		q := int(v)
		var cnt int32
		for _, u := range s[:qi] {
			if !top && u >= 0 {
				continue
			}
			p := index(u)
			above := true
			for a := (j + 1) * c.n; a < len(c.rank); a += c.n {
				if c.rank[a+p] < c.rank[a+q] {
					above = false
					break
				}
			}
			if above {
				cnt++
			}
		}
		c.counts[q] += cnt
	}
}

// fenwick is solve with two ranks left, j−1 and j: s is ordered by
// descending rank j−1, so each query's dominators are the data points
// before it with a higher rank j, which a Fenwick tree over rank j counts.
// Rank r is stored at position n−r, so a prefix sum counts higher ranks.
func (c *domCounter) fenwick(s []int32, j int, top bool) {
	r := c.rank[j*c.n : (j+1)*c.n]
	bit := c.bit
	for _, v := range s {
		if top || v >= 0 {
			var cnt int32
			for i := c.n - 1 - int(r[v]); i > 0; i &= i - 1 {
				cnt += bit[i]
			}
			c.counts[v] += cnt
		}
		if top || v < 0 {
			for i := c.n - int(r[index(v)]); i <= c.n; i += i & -i {
				bit[i]++
			}
		}
	}
	for _, v := range s {
		if top || v < 0 {
			for i := c.n - int(r[index(v)]); i <= c.n; i += i & -i {
				bit[i]--
			}
		}
	}
}
