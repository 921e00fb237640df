// Package sweep implements the 2-D angular ray sweep of the RRR paper: a
// ray anchored at the origin rotates from the x-axis (θ = 0, f = x1) to the
// y-axis (θ = π/2, f = x2) while the package tracks every ordering exchange
// between adjacent tuples (Algorithm 1's event loop).
//
// There is one event loop, on Scratch: start schedules the adjacent pairs
// of an initial order, and step applies the next live exchange and
// returns it with its position. Every consumer drives that loop and keeps
// its per-event bookkeeping in its own loop body:
//
//   - FindRangesScratch (Algorithm 1): for every tuple, the first and last
//     angle at which it belongs to the top-k; the convex closure of its
//     in-top-k intervals, which by Theorem 1 guarantees rank ≤ 2k inside
//     the range. FindRanges is its map-shaped wrapper, and FindRangesMulti
//     watches several k boundaries in one pass with the same per-k
//     tracker.
//   - Sweep: the raw exchange stream, the oracle the tests replay against
//     brute-force rankings. KSets (k-border following: the exact
//     collection of k-sets of a 2-D dataset) runs on it.
//   - ExactRankRegretMulti (ground truth): the exact rank-regret of
//     subsets over all linear functions, used by the 2-D experiments where
//     the paper also measures exactly. ExactRankRegret is its one-subset
//     case.
//
// The sweep performs O(E log n) work where E ≤ n(n−1)/2 is the number of
// ordering exchanges, matching the paper's quadratic bound (Theorem 2).
// FindRangesScratch and FindRangesMulti first drop, in O(n log k), every
// tuple that k others beat on both attributes (the k-skyband prefilter),
// so they sweep only the s surviving tuples: O(n log n + E_s log s) with
// E_s ≤ s(s−1)/2. Sweep, KSets and ExactRankRegret* need every tuple's
// true rank and sweep all n.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"rrr/internal/core"
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
	sc.start(ts)
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
// every smaller one. It returns one range slice per requested k, in input
// order, each equal — order included — to what FindRangesScratch returns
// for that k. Duplicate k values are allowed; a k exceeding n fails the
// whole call with an error wrapping ErrKExceedsN, exactly as FindRanges
// does for the same input. Like FindRanges, it checks the context
// periodically and aborts on cancellation.
func FindRangesMulti(ctx context.Context, d *core.Dataset, ks []int) ([][]Range, error) {
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
	sc := new(Scratch)
	if err := sc.initBand(d, widest); err != nil {
		return nil, err
	}
	ts := d.Tuples()
	// at[p] tracks the boundary at position p — rank target p+1 — or is
	// nil where no requested k sits. The first widest tuples head the band
	// at their initial positions, so each prefix is its k's initial top-k.
	at := make([]*boundary, widest)
	for _, k := range ks {
		if at[k-1] == nil {
			at[k-1] = new(boundary)
			at[k-1].reset(len(ts), sc.order[:k])
		}
	}
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
// following the k-border through the sweep (Appendix B's 2-D case). Each
// k-set is a sorted ID slice; the collection is returned in first-seen
// (sweep) order.
func KSets(d *core.Dataset, k int) ([][]int, error) {
	if k <= 0 {
		return nil, errors.New("sweep: k must be positive")
	}
	order, err := InitialOrder(d)
	if err != nil {
		return nil, err
	}
	if k >= d.N() {
		all := append([]int(nil), order...)
		sort.Ints(all)
		return [][]int{all}, nil
	}
	cur := make(map[int]bool, k)
	for _, id := range order[:k] {
		cur[id] = true
	}
	var sets [][]int
	seen := make(map[string]bool)
	record := func() {
		ids := make([]int, 0, k)
		for id := range cur {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		key := intsKey(ids)
		if !seen[key] {
			seen[key] = true
			sets = append(sets, ids)
		}
	}
	record()
	_, err = Sweep(d, func(e Event) bool {
		if e.Pos == k-1 {
			delete(cur, e.Above)
			cur[e.Below] = true
			record()
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return sets, nil
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
	sc.start(ts)
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
