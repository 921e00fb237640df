// Package kset implements the k-set machinery of Section 5 of the RRR
// paper. A k-set of a point set is a subset of exactly k points strictly
// separable from the rest by a hyperplane with a non-negative normal; by
// Lemma 5 the collection of k-sets is exactly the collection of possible
// top-k results over the linear ranking functions, which is what MDRRR's
// hitting set runs over.
//
// Two enumerators are provided, mirroring the paper:
//
//   - Sample is Algorithm 4 (K-SETr): draw ranking functions uniformly from
//     the unit hypersphere's positive orthant (Marsaglia sampling), take
//     their top-k sets, and stop after a run of `Termination` consecutive
//     draws that discover nothing new — the coupon-collector stopping rule.
//     SampleMulti runs it for several k over one function stream; both run
//     the one draw loop, Sample with a single k.
//   - GraphEnumerate is Algorithm 6 (Appendix B): BFS over the k-set graph,
//     whose vertices are k-sets and whose edges connect sets differing in
//     one element (Theorem 7 proves the graph connected). Every candidate is
//     validated by the strict-separation linear program (Equation 4). As the
//     paper observes, this is exact but only practical for small n.
package kset

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"rrr/internal/core"
	"rrr/internal/geom"
	"rrr/internal/lp"
	"rrr/internal/topk"
)

// Collection is a set of distinct k-sets in first-seen order. Each k-set is
// a sorted slice of tuple IDs.
type Collection struct {
	sets  [][]int
	index map[string]int
	// keyBuf is the reusable encoding buffer of Add: the duplicate-probe
	// path — the steady state of a converging K-SETr run — encodes into it
	// and looks the map up with string(keyBuf), which the compiler compiles
	// to a zero-copy probe. Only genuinely new sets allocate.
	keyBuf []byte
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{index: make(map[string]int)}
}

// Canon returns the canonical (sorted, copied) form of a k-set.
func Canon(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

// Add inserts a k-set (must already be sorted ascending) and reports
// whether it was new. Probing an already-present set allocates nothing.
func (c *Collection) Add(sorted []int) bool {
	c.keyBuf = appendKey(c.keyBuf[:0], sorted)
	if _, ok := c.index[string(c.keyBuf)]; ok {
		return false
	}
	cp := append([]int(nil), sorted...)
	c.index[string(c.keyBuf)] = len(c.sets)
	c.sets = append(c.sets, cp)
	return true
}

// Contains reports whether the sorted ID slice is already present.
func (c *Collection) Contains(sorted []int) bool {
	_, ok := c.index[key(sorted)]
	return ok
}

// Len returns the number of distinct k-sets.
func (c *Collection) Len() int { return len(c.sets) }

// Sets returns the k-sets in first-seen order. Callers must not modify the
// returned slices.
func (c *Collection) Sets() [][]int { return c.sets }

// Universe returns the distinct tuple IDs appearing in any k-set, sorted —
// the point set D = ∪ S_i that MDRRR's hitting set runs over.
func (c *Collection) Universe() []int {
	seen := make(map[int]bool)
	var out []int
	for _, s := range c.sets {
		for _, id := range s {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

func key(ids []int) string {
	return string(appendKey(make([]byte, 0, len(ids)*3), ids))
}

// appendKey appends the varint encoding of ids to buf and returns it.
func appendKey(buf []byte, ids []int) []byte {
	for _, v := range ids {
		u := uint(v)
		for u >= 0x80 {
			buf = append(buf, byte(u)|0x80)
			u >>= 7
		}
		buf = append(buf, byte(u))
	}
	return buf
}

// SampleOptions configures Algorithm 4 (K-SETr).
type SampleOptions struct {
	// Termination is the paper's c: stop after this many consecutive
	// samples that discover no new k-set. Default 100 (the paper's §6
	// setting).
	Termination int
	// MaxDraws caps the total number of sampled functions as a safety
	// valve. Default 2,000,000.
	MaxDraws int
	// HardMaxDraws makes reaching MaxDraws an error (wrapping
	// ErrDrawBudget) instead of a silent truncation of the collection.
	HardMaxDraws bool
	// Seed drives the random function generator.
	Seed int64
	// OnProgress, if non-nil, receives the running stats periodically
	// during the draw loop.
	OnProgress func(SampleStats)
	// Scratch, if non-nil, supplies the reusable draw buffers (weight
	// vector, top-k heap, canonicalization prefix) so the draw loop's
	// steady state — duplicate draws against a converged collection —
	// allocates nothing. Owned by one Sample/SampleMulti call at a time.
	Scratch *SampleScratch
}

// SampleScratch is the reusable arena of the K-SETr draw loop. The zero
// value is ready to use; see SampleOptions.Scratch.
type SampleScratch struct {
	w      []float64
	topk   topk.Scratch
	prefix []int
}

// weight returns the arena's weight vector resized to dims.
func (sc *SampleScratch) weight(dims int) []float64 {
	if cap(sc.w) < dims {
		sc.w = make([]float64, dims)
	}
	sc.w = sc.w[:dims]
	return sc.w
}

// ErrDrawBudget is returned (wrapped) by Sample when HardMaxDraws is set
// and the draw cap is reached before the termination rule fires.
var ErrDrawBudget = errors.New("kset: draw budget exhausted")

// cancelCheckInterval is how many draws pass between context checks. A
// draw costs at most an O(n log k) top-k scan, so even a small interval
// keeps the check overhead unmeasurable while bounding cancellation
// latency to a few dozen scans.
const cancelCheckInterval = 16

// progressInterval is how many draws pass between OnProgress callbacks; a
// multiple of cancelCheckInterval so both fire on the same cheap branch.
const progressInterval = 256

// SampleStats reports how the sampler behaved.
type SampleStats struct {
	// Draws is the number of ranking functions sampled.
	Draws int
	// Distinct is the number of distinct k-sets discovered.
	Distinct int
	// Truncated reports whether MaxDraws stopped the run before the
	// termination rule fired.
	Truncated bool
}

// Sample runs K-SETr: repeatedly draw a uniform random ranking function,
// record its top-k as a k-set, and stop once Termination consecutive draws
// yield nothing new. k must be in [1, n] — k > n is rejected like
// sweep.FindRanges rejects it, not silently clamped, so every algorithm
// reports the same condition for the same input.
//
// Each draw costs one early-exit top-k scan, O(m log k) for the m tuples
// it reads. Those come from the whole dataset only until the run's scan
// work pays for the dataset's dominator counts; from then on, and from
// the start on a dataset that already has them, a draw reads only the
// k-skyband (see source), which on the paper's correlated data holds a
// fraction of the tuples. Every top-k lies in the band, so the
// collection, draws and stats are those of a run over the full data.
//
// The context is checked every cancelCheckInterval draws. On cancellation
// (or a HardMaxDraws overrun) Sample returns the partial collection and
// stats alongside the error, so callers can report — or even use — what
// the interrupted run discovered.
//
// Sample runs SampleMulti's draw loop with the one k.
func Sample(ctx context.Context, d *core.Dataset, k int, opt SampleOptions) (*Collection, SampleStats, error) {
	if err := checkK(d, k); err != nil {
		return nil, SampleStats{}, err
	}
	runs := [1]run{{k: k, active: true, col: NewCollection()}}
	sample(ctx, d, runs[:], opt)
	return runs[0].col, runs[0].stats, runs[0].err
}

// SampleMulti runs K-SETr for several k values over one shared stream of
// sampled ranking functions: each draw's ordered top-max(k) is computed
// once and every still-active k takes its length-k prefix as that
// function's k-set (the top-k under a strict total order is a prefix of
// the top-k′ for any k′ ≥ k). Each k keeps its own consecutive-miss
// counter, draw budget and stats, so its collection, draw count and
// truncation flag are identical to an independent Sample(ctx, d, k, opt)
// call with the same options — the whole point: a batch of adjacent k
// values pays for one function stream and one scoring pass per draw
// instead of len(ks). The scans move to the k-skyband as Sample's do,
// using the band of the largest k still active at the move, which
// contains every smaller k's band.
//
// Results align with ks by index. errs[i] is non-nil when that k's run
// failed (a hard draw budget wrapping ErrDrawBudget, or the context dying
// while the k was still active); its collection holds the partial state,
// like Sample's. k values must be in [1, n]; duplicates are allowed and
// evolve independently (their results are equal).
func SampleMulti(ctx context.Context, d *core.Dataset, ks []int, opt SampleOptions) ([]*Collection, []SampleStats, []error) {
	runs := make([]run, len(ks))
	for i, k := range ks {
		err := checkK(d, k)
		runs[i] = run{k: k, active: err == nil, col: NewCollection(), err: err}
	}
	sample(ctx, d, runs, opt)
	cols := make([]*Collection, len(ks))
	stats := make([]SampleStats, len(ks))
	errs := make([]error, len(ks))
	for i := range runs {
		cols[i], stats[i], errs[i] = runs[i].col, runs[i].stats, runs[i].err
	}
	return cols, stats, errs
}

// checkK rejects a rank target outside [1, n].
func checkK(d *core.Dataset, k int) error {
	if k <= 0 {
		return errors.New("kset: k must be positive")
	}
	if k > d.N() {
		return fmt.Errorf("kset: k=%d exceeds dataset size n=%d", k, d.N())
	}
	return nil
}

// run is one k's state in the K-SETr draw loop.
type run struct {
	k int
	// counter is the number of consecutive draws that found no new k-set.
	counter int
	active  bool
	col     *Collection
	stats   SampleStats
	err     error
}

// sample is the K-SETr draw loop behind Sample and SampleMulti: one
// function stream, one top-(largest active k) scan per draw, and per run
// the stopping rules, collection and stats of an independent K-SETr run.
// Runs that enter inactive are left as they are, apart from Distinct.
func sample(ctx context.Context, d *core.Dataset, runs []run, opt SampleOptions) {
	if ctx == nil {
		ctx = context.Background()
	}
	term := opt.Termination
	if term <= 0 {
		term = 100
	}
	maxDraws := opt.MaxDraws
	if maxDraws <= 0 {
		maxDraws = 2_000_000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	sc := opt.Scratch
	if sc == nil {
		sc = new(SampleScratch)
	}
	w := sc.weight(d.Dims())
	maxK := 0
	for i := range runs {
		if runs[i].active {
			maxK = max(maxK, runs[i].k)
		}
	}
	var src source
	if maxK > 0 {
		src = newSource(ctx, d, maxK)
	}
	draws := 0
	for {
		// Per-run stopping rules, checked before each draw: termination
		// already fired (counter > term, caught below), or the draw budget
		// is reached.
		maxActive, active := 0, 0
		for i := range runs {
			r := &runs[i]
			if !r.active {
				continue
			}
			if draws >= maxDraws {
				r.stats.Truncated = true
				if opt.HardMaxDraws {
					r.err = fmt.Errorf("%w after %d draws (%d k-sets found)",
						ErrDrawBudget, r.stats.Draws, r.col.Len())
				}
				r.active = false
				continue
			}
			maxActive = max(maxActive, r.k)
			active++
		}
		if active == 0 {
			break
		}
		if draws%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				for i := range runs {
					if r := &runs[i]; r.active {
						r.err = fmt.Errorf("kset: sampling canceled after %d draws: %w",
							r.stats.Draws, err)
						r.active = false
					}
				}
				break
			}
			if opt.OnProgress != nil && draws%progressInterval == 0 {
				agg := SampleStats{Draws: draws}
				for i := range runs {
					agg.Distinct += runs[i].col.Len()
				}
				opt.OnProgress(agg)
			}
		}
		geom.RandomWeightInto(w, rng)
		draws++
		ordered, read := topk.TopKOrderScratch(d, src.order, src.norms, core.LinearFunc{W: w}, maxActive, &sc.topk)
		src.scanned(ctx, d, maxActive, read)
		for i := range runs {
			r := &runs[i]
			if !r.active {
				continue
			}
			r.stats.Draws++
			// A lone active run canonicalizes the draw's order in place;
			// with several, each copies its prefix into the arena, because
			// the others still read the rank order. Add copies the set only
			// when it is new.
			set := ordered[:r.k]
			if active > 1 {
				sc.prefix = append(sc.prefix[:0], set...)
				set = sc.prefix
			}
			sort.Ints(set)
			if r.col.Add(set) {
				r.counter = 0
			} else {
				r.counter++
			}
			if r.counter > term {
				r.active = false
			}
		}
	}
	for i := range runs {
		runs[i].stats.Distinct = runs[i].col.Len()
	}
}

// source is the tuple order a K-SETr run's top-k scans read. Every
// draw's top-k lies in the k-skyband (core.Dataset.KSkyband), so a run
// on a dataset that already has its dominator counts reads only the
// band. Otherwise it starts on the full ScanOrder and counts the tuples
// its scans score; once that work reaches the build's estimated cost
// (core.Dataset.DominatorBuildCost), it builds the counts and moves to
// the band. So a run that stops early pays at most about twice its scan
// work, and a long run pays for the build once. Both orders yield the
// same top-k, so the switch never shows in a run's output.
type source struct {
	order []int32
	norms []float64
	// left is the scan work still to go before the build pays; negative
	// once the run reads the band or its build failed.
	left int
}

func newSource(ctx context.Context, d *core.Dataset, k int) source {
	if d.HasDominatorCounts() {
		if order, norms, err := d.KSkyband(ctx, k); err == nil {
			return source{order: order, norms: norms, left: -1}
		}
	}
	order, norms := d.ScanOrder()
	return source{order: order, norms: norms, left: d.DominatorBuildCost()}
}

// scanned records a scan that scored read tuples, and moves the run to
// the k-skyband once its work covers the build. A build whose context
// died leaves the run on the full order, where the draw loop's next
// context check stops it.
func (s *source) scanned(ctx context.Context, d *core.Dataset, k, read int) {
	if s.left < 0 {
		return
	}
	if s.left -= read; s.left > 0 {
		return
	}
	s.left = -1
	if order, norms, err := d.KSkyband(ctx, k); err == nil {
		s.order, s.norms = order, norms
	}
}

// IsValid checks whether the given tuple IDs form a valid k-set of d by
// solving the strict-separation LP, and returns a witness ranking function
// on success.
func IsValid(d *core.Dataset, ids []int) (core.LinearFunc, bool, error) {
	member := make(map[int]bool, len(ids))
	for _, id := range ids {
		if _, ok := d.ByID(id); !ok {
			return core.LinearFunc{}, false, fmt.Errorf("kset: unknown tuple ID %d", id)
		}
		member[id] = true
	}
	if len(member) != len(ids) {
		return core.LinearFunc{}, false, errors.New("kset: duplicate IDs in candidate")
	}
	inside := make([][]float64, 0, len(ids))
	outside := make([][]float64, 0, d.N()-len(ids))
	for _, t := range d.Tuples() {
		if member[t.ID] {
			inside = append(inside, t.Attrs)
		} else {
			outside = append(outside, t.Attrs)
		}
	}
	w, _, _, ok, err := lp.StrictSeparation(inside, outside)
	if err != nil || !ok {
		return core.LinearFunc{}, false, err
	}
	return core.NewLinearFunc(w...), true, nil
}

// GraphOptions configures the exact BFS enumeration.
type GraphOptions struct {
	// MaxSets aborts the enumeration once this many k-sets are found
	// (0 = unlimited). The BFS solves O(k·(n−k)) linear programs per
	// k-set, so the cap protects interactive callers.
	MaxSets int
	// Seed drives the fallback search for an initial k-set when the
	// axis-aligned seed function is degenerate (ties on attribute 1).
	Seed int64
}

// GraphEnumerate is Algorithm 6: exact k-set enumeration by BFS over the
// k-set graph. The initial vertex is the top-k on the first attribute; each
// expansion swaps one member for one non-member and validates the candidate
// with the separation LP. Candidates of one BFS vertex are validated on up
// to GOMAXPROCS goroutines and their results applied in deterministic
// order, so the enumeration is identical for any GOMAXPROCS.
func GraphEnumerate(d *core.Dataset, k int, opt GraphOptions) (*Collection, error) {
	if k <= 0 {
		return nil, errors.New("kset: k must be positive")
	}
	n := d.N()
	if k >= n {
		col := NewCollection()
		all := make([]int, 0, n)
		for _, t := range d.Tuples() {
			all = append(all, t.ID)
		}
		sort.Ints(all)
		col.Add(all)
		return col, nil
	}

	start, err := initialKSet(d, k, opt.Seed)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	col := NewCollection()
	col.Add(start)
	queue := [][]int{start}
	ids := make([]int, 0, n)
	for _, t := range d.Tuples() {
		ids = append(ids, t.ID)
	}
	for len(queue) > 0 {
		if opt.MaxSets > 0 && col.Len() >= opt.MaxSets {
			return col, fmt.Errorf("kset: enumeration capped at %d sets", opt.MaxSets)
		}
		s := queue[0]
		queue = queue[1:]
		member := make(map[int]bool, len(s))
		for _, id := range s {
			member[id] = true
		}
		// Generate this vertex's swap candidates in deterministic order,
		// validate them with the LP concurrently, then apply the results
		// in order — identical output for any worker count.
		var cands [][]int
		for _, out := range s {
			for _, in := range ids {
				if member[in] {
					continue
				}
				cand := make([]int, 0, k)
				for _, id := range s {
					if id != out {
						cand = append(cand, id)
					}
				}
				cand = append(cand, in)
				sort.Ints(cand)
				if col.Contains(cand) {
					continue
				}
				cands = append(cands, cand)
			}
		}
		valid := make([]bool, len(cands))
		errs := make([]error, len(cands))
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for ci := range cands {
			ci := ci
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				_, ok, err := IsValid(d, cands[ci])
				valid[ci], errs[ci] = ok, err
				<-sem
			}()
		}
		wg.Wait()
		for ci, cand := range cands {
			if errs[ci] != nil {
				return nil, errs[ci]
			}
			if valid[ci] && col.Add(cand) {
				queue = append(queue, cand)
			}
		}
	}
	return col, nil
}

// initialKSet finds a first valid k-set: the top-k on attribute 1, falling
// back to random functions when ties make that candidate non-separable.
func initialKSet(d *core.Dataset, k int, seed int64) ([]int, error) {
	w := make([]float64, d.Dims())
	w[0] = 1
	cand := topk.TopKSet(d, core.LinearFunc{W: w}, k)
	if _, ok, err := IsValid(d, cand); err != nil {
		return nil, err
	} else if ok {
		return cand, nil
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 256; trial++ {
		f := geom.RandomFunc(d.Dims(), rng)
		cand = topk.TopKSet(d, f, k)
		if _, ok, err := IsValid(d, cand); err != nil {
			return nil, err
		} else if ok {
			return cand, nil
		}
	}
	return nil, errors.New("kset: could not find an initial separable k-set (dataset too degenerate)")
}

// UpperBound returns the best known theoretical upper bound on the number
// of k-sets that the paper quotes in Section 7 and plots in Figures 13–16:
// O(n·k^{1/3}) in 2-D [Dey 1998], O(n·k^{3/2}) in 3-D [Sharir et al. 2000]
// and O(n^{d−ε}) for d > 3 [Alon et al. 1992], where ε > 0 is a small
// constant. Constants are taken as 1 and ε as 0.05; the figures compare
// orders of magnitude, not constants.
func UpperBound(n, k, d int) float64 {
	if n <= 0 || k <= 0 {
		return 0
	}
	switch {
	case d <= 2:
		return float64(n) * math.Cbrt(float64(k))
	case d == 3:
		return float64(n) * math.Pow(float64(k), 1.5)
	default:
		return math.Pow(float64(n), float64(d)-0.05)
	}
}
