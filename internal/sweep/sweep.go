// Package sweep implements the 2-D angular ray sweep of the RRR paper: a
// ray anchored at the origin rotates from the x-axis (θ = 0, f = x1) to the
// y-axis (θ = π/2, f = x2) while the package tracks every ordering exchange
// between adjacent tuples (Algorithm 1's event loop).
//
// There is one event loop, on Scratch: start schedules the adjacent pairs
// of an order — the initial one, or a sector's band at the sector's first
// angle — and step applies the next live exchange keyed before the
// sweep's end and returns it with its position. Every consumer drives
// that loop and keeps its per-event bookkeeping in its own loop body:
//
//   - FindRangesScratch (Algorithm 1): for every tuple, the first and last
//     angle at which it belongs to the top-k; the convex closure of its
//     in-top-k intervals, which by Theorem 1 guarantees rank ≤ 2k inside
//     the range. FindRanges is its map-shaped wrapper, and FindRangesMulti
//     watches several k boundaries in one pass with the same per-k
//     tracker.
//   - KSets (k-border following): the exact collection of k-sets of a 2-D
//     dataset, the top-k after each exchange at position k−1.
//   - KBorder: the top-k border itself (the paper's Figure 3), the k-th
//     tuple after each exchange at position k−2 or k−1.
//   - Sweep: the raw exchange stream, the oracle the tests replay against
//     brute-force rankings and against every k-level consumer.
//   - ExactRankRegretMulti (ground truth): the exact rank-regret of
//     subsets over all linear functions, used by the 2-D experiments where
//     the paper also measures exactly. ExactRankRegret is its one-subset
//     case.
//
// The sweep performs O(E log n) work where E ≤ n(n−1)/2 is the number of
// ordering exchanges, matching the paper's quadratic bound (Theorem 2).
// The k-level consumers (FindRanges*, KSets and KBorder) read only the
// exchanges at positions below k, where the top-k border lives. They first
// drop, in O(n log k), every tuple that k others beat on both attributes
// (the k-skyband prefilter), leaving s tuples. They then bisect [0, π/2]
// into angular sectors while a sector's band holds more than 3k/2 tuples,
// and sweep each sector only on its own band: the tuples that fewer than k
// others beat at both of its end angles (sector.go). A split costs
// O(s log s) for the sort at the split angle and its check, and the
// exchanges applied fall from the E_s ≤ s(s−1)/2 of the whole band to
// those among each sector's band inside that sector: on the benchmark's
// cold 2-D data at k = 106, 40,131 → 12,510 (DESIGN.md §3). Sweep and
// ExactRankRegret* need every tuple's true rank and sweep all n in one
// pass.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"rrr/internal/core"
	"rrr/internal/geom"
)

// cancelCheckInterval is how many sweep events pass between context
// checks inside the cancellable consumers (FindRanges, FindRangesMulti).
// Events cost tens of nanoseconds, so 4096 of them bound cancellation
// latency well under a millisecond while keeping the check invisible in
// the event loop's profile.
const cancelCheckInterval = 4096

// ErrKExceedsN is returned (wrapped) by FindRanges and FindRangesMulti
// when a requested k exceeds the dataset size. The solver surfaces the
// condition as rrr.ErrInfeasible; the sweep used to clamp such k silently,
// which made batch items for the same input report differently depending
// on which layer caught it first.
var ErrKExceedsN = errors.New("sweep: k exceeds dataset size")

// Event is a single ordering exchange: at angle Theta the tuple Above
// (currently ranked at 0-based position Pos) and the tuple Below (position
// Pos+1) swap places, Below outranking Above for larger angles.
type Event struct {
	Theta float64
	Pos   int
	Above int // tuple ID ranked Pos before the swap
	Below int // tuple ID ranked Pos+1 before the swap
}

// InitialOrder returns the tuple IDs in rank order for θ → 0⁺: primarily by
// x1 descending, ties by x2 descending, further ties (duplicate points) by
// ID ascending — consistent with the library's global tie-breaking.
func InitialOrder(d *core.Dataset) ([]int, error) {
	sc := new(Scratch)
	if err := sc.initOrder(d); err != nil {
		return nil, err
	}
	ts := d.Tuples()
	ids := make([]int, len(sc.order))
	for i, li := range sc.order {
		ids[i] = ts[li].ID
	}
	return ids, nil
}

// event is the internal heap entry, holding dataset-local indexes.
type event struct {
	theta        float64
	above, below int // local indexes
}

type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].theta != h[j].theta {
		return h[i].theta < h[j].theta
	}
	if h[i].above != h[j].above {
		return h[i].above < h[j].above
	}
	return h[i].below < h[j].below
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

// Sweep rotates the ray across (0, π/2) and invokes visit for every
// ordering exchange, in non-decreasing angle order. Returning false from
// visit stops the sweep early. The total number of events is returned.
// Sweep is the event loop's oracle-facing form: it sweeps every tuple, so
// each Event's Pos is the true 0-based rank (see Scratch.step for how
// the queue handles concurrent crossings).
func Sweep(d *core.Dataset, visit func(Event) bool) (int, error) {
	sc := new(Scratch)
	if err := sc.initOrder(d); err != nil {
		return 0, err
	}
	ts := d.Tuples()
	sc.start(ts, math.Inf(1))
	for {
		e, p, ok := sc.step(ts)
		if !ok {
			break
		}
		if visit != nil && !visit(Event{Theta: e.theta, Pos: p, Above: ts[e.above].ID, Below: ts[e.below].ID}) {
			break
		}
	}
	return sc.events, nil
}

// Range is the angular interval assigned to one tuple by FindRanges: the
// convex closure of the angles at which the tuple is in the top-k. By
// Theorem 1 the tuple has rank at most 2k for every function inside
// [Lo, Hi].
type Range struct {
	ID     int
	Lo, Hi float64
}

// FindRanges is Algorithm 1: it returns one Range per tuple that is in the
// top-k of at least one function, keyed by tuple ID. Tuples never entering
// any top-k are absent from the map. k must be in [1, n]; k > n returns an
// error wrapping ErrKExceedsN.
//
// The context is checked every cancelCheckInterval sweep events; a
// canceled or expired context aborts the sweep and returns an error
// wrapping ctx.Err().
//
// FindRanges is the map-shaped convenience over FindRangesScratch; hot
// paths that solve repeatedly should hold a Scratch and call the arena
// version directly.
func FindRanges(ctx context.Context, d *core.Dataset, k int) (map[int]Range, error) {
	rs, err := FindRangesScratch(ctx, d, k, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[int]Range, len(rs))
	for _, r := range rs {
		out[r.ID] = r
	}
	return out, nil
}

// FindRangesMulti computes Algorithm 1's ranges for several k values in a
// single sweep: the boundary exchange of order k happens at position k−1,
// so one pass can watch all requested boundaries at once. The sweep covers
// the k-skyband of the largest requested k, which contains the skyband of
// every smaller one, and bisects into sectors on that k's band; every k's
// tracker reads the same leaves. It returns one range slice per requested
// k, in input order, each equal — order included — to what
// FindRangesScratch returns for that k. Duplicate k values are allowed; a
// k exceeding n fails the whole call with an error wrapping ErrKExceedsN,
// exactly as FindRanges does for the same input. Like FindRanges, it
// checks the context periodically and aborts on cancellation.
//
// The sweep runs on sc, whose state it reuses the way FindRangesScratch
// does; a nil sc uses a temporary arena. The per-k trackers and the
// returned slices are allocated per call and owned by the caller, so an
// arena does not keep memory that grows with the number of k values.
func FindRangesMulti(ctx context.Context, d *core.Dataset, ks []int, sc *Scratch) ([][]Range, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(ks) == 0 {
		return nil, errors.New("sweep: no k values")
	}
	widest := 0
	for _, k := range ks {
		if k <= 0 {
			return nil, errors.New("sweep: k must be positive")
		}
		if k > d.N() {
			return nil, fmt.Errorf("%w: k=%d, n=%d", ErrKExceedsN, k, d.N())
		}
		widest = max(widest, k)
	}
	if sc == nil {
		sc = new(Scratch)
	}
	if err := sc.initBand(d, widest); err != nil {
		return nil, err
	}
	ts := d.Tuples()
	slots := sc.numberBand(len(ts))
	// at[p] tracks the boundary at position p — rank target p+1 — or is
	// nil where no requested k sits. The first widest tuples head the band
	// at their initial positions, so each prefix is its k's initial top-k.
	at := make([]*boundary, widest)
	for _, k := range ks {
		if at[k-1] == nil {
			at[k-1] = new(boundary)
			at[k-1].reset(sc.slot, slots, sc.order[:k])
		}
	}
	for sc.nextLeaf(ts) {
		for {
			e, p, ok := sc.step(ts)
			if !ok {
				break
			}
			if err := sc.canceled(ctx); err != nil {
				return nil, err
			}
			if p < widest && at[p] != nil {
				at[p].exchange(e)
			}
		}
	}
	// One backing array holds every k's ranges; each slice is capped so an
	// append to one cannot overwrite the next.
	total := 0
	for _, k := range ks {
		total += at[k-1].seen
	}
	all := make([]Range, 0, total)
	out := make([][]Range, len(ks))
	for i, k := range ks {
		from := len(all)
		all = at[k-1].appendRanges(all, ts)
		out[i] = all[from:len(all):len(all)]
	}
	return out, nil
}

// KSets enumerates the exact collection of k-sets of a 2-D dataset by
// following the k-border through the sweep (Appendix B's 2-D case): the
// top-k at θ = 0, then the top-k after each exchange at position k−1. Each
// k-set is a sorted ID slice; the collection is returned in first-seen
// (sweep) order. For k ≥ n it is the one set of every ID.
func KSets(d *core.Dataset, k int) ([][]int, error) {
	if k <= 0 {
		return nil, errors.New("sweep: k must be positive")
	}
	if k >= d.N() {
		all, err := InitialOrder(d)
		if err != nil {
			return nil, err
		}
		slices.Sort(all)
		return [][]int{all}, nil
	}
	sc := new(Scratch)
	if err := sc.initBand(d, k); err != nil {
		return nil, err
	}
	ts := d.Tuples()
	var sets [][]int
	seen := make(map[string]bool)
	ids := make([]int, k)
	// The first k of the order are the top-k: the band's at θ = 0, and
	// after an exchange at position k−1 the loop's.
	record := func() {
		for i, li := range sc.order[:k] {
			ids[i] = ts[li].ID
		}
		slices.Sort(ids)
		if key := intsKey(ids); !seen[key] {
			seen[key] = true
			sets = append(sets, slices.Clone(ids))
		}
	}
	record()
	for sc.nextLeaf(ts) {
		for {
			_, p, ok := sc.step(ts)
			if !ok {
				break
			}
			if p == k-1 {
				record()
			}
		}
	}
	return sets, nil
}

// Facet is one facet of the 2-D top-k border (the paper's Figure 3): over
// the sweep-angle interval [From, To] (radians from the x1-axis) the k-th
// ranked tuple is ID.
type Facet struct {
	ID       int
	From, To float64
}

// KBorder computes the top-k border of a 2-D dataset: the chain of dual
// facets whose crossings define every change of the top-k, in sweep
// order. The facets tile [0, π/2], each has positive width, and
// neighbouring facets belong to different tuples; a tuple may still own
// several facets, as d(t3) does in Figure 3. k above n is clamped to n.
//
// The k-th tuple changes at every exchange at position k−2 or k−1. A
// facet starts at the exchange's key, or at the largest key seen so far if
// that is larger: inside a concurrent crossing the loop can apply a key a
// few ulps below the one before it. Several exchanges at one key leave
// only the last one's tuple, so no facet has zero width.
func KBorder(d *core.Dataset, k int) ([]Facet, error) {
	if k <= 0 {
		return nil, errors.New("sweep: k must be positive")
	}
	k = min(k, d.N())
	sc := new(Scratch)
	if err := sc.initBand(d, k); err != nil {
		return nil, err
	}
	ts := d.Tuples()
	facets := []Facet{{ID: ts[sc.order[k-1]].ID}}
	at := 0.0
	for sc.nextLeaf(ts) {
		for {
			e, p, ok := sc.step(ts)
			if !ok {
				break
			}
			if p == k-1 || p == k-2 {
				at = max(at, e.theta)
				facets = turn(facets, ts[sc.order[k-1]].ID, at)
			}
		}
	}
	if n := len(facets); n > 1 && facets[n-1].From == geom.HalfPi {
		facets = facets[:n-1] // opened at π/2 itself: no width
	}
	for i := range facets {
		facets[i].To = geom.HalfPi
		if i+1 < len(facets) {
			facets[i].To = facets[i+1].From
		}
	}
	return facets, nil
}

// turn moves the border onto tuple id at angle at, which is never below
// the open facet's start. The open facet ends there; if it started there
// too, it is dropped, and the facet before it stays open when it is id's.
func turn(facets []Facet, id int, at float64) []Facet {
	if n := len(facets); facets[n-1].From == at {
		facets = facets[:n-1]
		if n > 1 && facets[n-2].ID == id {
			return facets
		}
	}
	return append(facets, Facet{ID: id, From: at})
}

// intsKey encodes a sorted int slice as a compact map key.
func intsKey(ids []int) string {
	buf := make([]byte, 0, len(ids)*3)
	for _, v := range ids {
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	return string(buf)
}

// ExactRankRegretMulti evaluates several subsets in a single sweep,
// returning the exact rank-regret of each — the harness uses it to grade
// all algorithms' outputs for the cost of one O(n²) pass. An empty subset
// has rank-regret n+1.
func ExactRankRegretMulti(d *core.Dataset, subsets [][]int) ([]int, error) {
	out := make([]int, len(subsets))
	// Membership is a local-index bool slice per tracker, not an ID-keyed
	// map: the sweep tests membership twice per event per tracker, so the
	// flat array keeps the grading pass hash-free.
	type tracker struct {
		member []bool // by dataset-local index
		minPos int    // position of the best-ranked member
		worst  int    // the largest minPos seen
	}
	trackers := make([]*tracker, len(subsets))
	anyActive := false
	for si, ids := range subsets {
		if len(ids) == 0 {
			out[si] = d.N() + 1
			continue
		}
		tr := &tracker{member: make([]bool, d.N())}
		for _, id := range ids {
			li := d.IndexOf(id)
			if li < 0 {
				return nil, errors.New("sweep: unknown tuple ID in subset")
			}
			tr.member[li] = true
		}
		trackers[si] = tr
		anyActive = true
	}
	if !anyActive {
		return out, nil
	}
	sc := new(Scratch)
	if err := sc.initOrder(d); err != nil {
		return nil, err
	}
	for _, tr := range trackers {
		if tr != nil {
			tr.minPos = slices.IndexFunc(sc.order, func(li int) bool { return tr.member[li] })
			tr.worst = tr.minPos
		}
	}
	ts := d.Tuples()
	sc.start(ts, math.Inf(1))
	for {
		e, p, ok := sc.step(ts)
		if !ok {
			break
		}
		for _, tr := range trackers {
			if tr == nil {
				continue
			}
			ma, mb := tr.member[e.above], tr.member[e.below]
			if ma == mb {
				continue
			}
			if ma {
				// The member moves down from p to p+1.
				if p == tr.minPos {
					tr.minPos = p + 1
					tr.worst = max(tr.worst, tr.minPos)
				}
			} else if p+1 == tr.minPos {
				// The member moves up from p+1 to p.
				tr.minPos = p
			}
		}
	}
	for si, tr := range trackers {
		if tr != nil {
			out[si] = tr.worst + 1
		}
	}
	return out, nil
}

// ExactRankRegret computes the exact rank-regret of the subset given by ids
// over every linear ranking function on a 2-D dataset, by tracking the
// best-ranked member through all ordering exchanges. It is the ground-truth
// counterpart of the sampled estimator used in higher dimensions, and
// ExactRankRegretMulti's one-subset case.
func ExactRankRegret(d *core.Dataset, ids []int) (int, error) {
	rr, err := ExactRankRegretMulti(d, [][]int{ids})
	if err != nil {
		return 0, err
	}
	return rr[0], nil
}
