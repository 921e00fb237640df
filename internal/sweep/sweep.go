// Package sweep implements the 2-D angular ray sweep of the RRR paper: a
// ray anchored at the origin rotates from the x-axis (θ = 0, f = x1) to the
// y-axis (θ = π/2, f = x2) while the package tracks every ordering exchange
// between adjacent tuples (Algorithm 1's event loop).
//
// Three consumers are built on the generic sweep:
//
//   - FindRanges (Algorithm 1): for every tuple, the first and last angle at
//     which it belongs to the top-k; the convex closure of its in-top-k
//     intervals, which by Theorem 1 guarantees rank ≤ 2k inside the range.
//   - KSets (k-border following): the exact collection of k-sets of a 2-D
//     dataset, enumerated by watching the top-k boundary.
//   - ExactRankRegret (ground truth): the exact rank-regret of a subset over
//     all linear functions, used by the 2-D experiments where the paper also
//     measures exactly.
//
// The sweep performs O(E log n) work where E ≤ n(n−1)/2 is the number of
// ordering exchanges, matching the paper's quadratic bound (Theorem 2).
// FindRanges and FindRangesMulti first drop, in O(n log k), every tuple
// that k others beat on both attributes (the k-skyband prefilter), so they
// sweep only the s surviving tuples: O(n log n + E_s log s) with
// E_s ≤ s(s−1)/2. Sweep, KSets and ExactRankRegret need every tuple's true
// rank and sweep all n.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

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
	idx, err := initialLocalOrder(d)
	if err != nil {
		return nil, err
	}
	ts := d.Tuples()
	ids := make([]int, len(idx))
	for i, j := range idx {
		ids[i] = ts[j].ID
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
//
// The event queue follows the classic arrangement-sweep recipe: an exchange
// is scheduled only while the pair is adjacent and oriented so that the
// lower tuple overtakes at larger angles (strictly larger x2); a scheduled
// event that finds its pair no longer adjacent is discarded — the pair is
// rescheduled when it becomes adjacent again, which must happen before its
// true crossing angle. This handles concurrent crossings (three or more
// tuples exchanging at one angle) without the general-position assumption
// the paper makes.
func Sweep(d *core.Dataset, visit func(Event) bool) (int, error) {
	order, err := initialLocalOrder(d)
	if err != nil {
		return 0, err
	}
	ts := d.Tuples()
	if visit == nil {
		return sweepLocal(d, order, nil)
	}
	return sweepLocal(d, order, func(e event, p int) bool {
		return visit(Event{Theta: e.theta, Pos: p, Above: ts[e.above].ID, Below: ts[e.below].ID})
	})
}

// sweepLocal is the event loop shared by Sweep and FindRangesMulti: it
// consumes a pre-computed initial local order (which it mutates) and
// invokes visit with local-index events, sparing slice-state consumers the
// ID round-trip. The order may cover only some of the dataset's tuples
// (FindRangesMulti passes its k-skyband); local indexes, and so the
// position array and the pending-pair key, stay dataset-wide.
// FindRangesScratch inlines the same loop on its arena.
func sweepLocal(d *core.Dataset, order []int, visit func(e event, p int) bool) (int, error) {
	n, m := d.N(), len(order)
	ts := d.Tuples()
	pos := make([]int, n) // position by local index
	for p, li := range order {
		pos[li] = p
	}

	var heap eventHeap
	pending := make(map[int64]struct{})
	key := func(a, b int) int64 { return int64(a)*int64(n) + int64(b) }

	// schedule pushes the exchange event for the adjacent pair at
	// positions (p, p+1) when it will cross ahead of the sweep.
	schedule := func(p int) {
		if p < 0 || p+1 >= m {
			return
		}
		u, v := order[p], order[p+1]
		// v overtakes u at larger angles only if v is strictly better on
		// x2; otherwise their crossing (if any) is behind the sweep.
		if ts[v].Attrs[1] <= ts[u].Attrs[1] {
			return
		}
		theta, ok := geom.CrossAngle2D(ts[u], ts[v])
		if !ok {
			return
		}
		k := key(u, v)
		if _, dup := pending[k]; dup {
			return
		}
		pending[k] = struct{}{}
		heap.push(event{theta: theta, above: u, below: v})
	}

	for p := 0; p < m-1; p++ {
		schedule(p)
	}

	events := 0
	for len(heap) > 0 {
		e := heap.pop()
		delete(pending, key(e.above, e.below))
		p := pos[e.above]
		if p+1 >= m || order[p+1] != e.below {
			continue // stale: pair separated; rescheduled on re-adjacency
		}
		events++
		if visit != nil {
			if !visit(e, p) {
				return events, nil
			}
		}
		order[p], order[p+1] = e.below, e.above
		pos[e.above] = p + 1
		pos[e.below] = p
		schedule(p - 1)
		schedule(p + 1)
	}
	return events, nil
}

func initialLocalOrder(d *core.Dataset) ([]int, error) {
	if d.Dims() != 2 {
		return nil, errors.New("sweep: requires a 2-D dataset")
	}
	idx := make([]int, d.N())
	for i := range idx {
		idx[i] = i
	}
	ts := d.Tuples()
	sort.Slice(idx, func(a, b int) bool {
		ta, tb := ts[idx[a]], ts[idx[b]]
		if ta.Attrs[0] != tb.Attrs[0] {
			return ta.Attrs[0] > tb.Attrs[0]
		}
		if ta.Attrs[1] != tb.Attrs[1] {
			return ta.Attrs[1] > tb.Attrs[1]
		}
		return ta.ID < tb.ID
	})
	return idx, nil
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
// every smaller one. It returns one range map per requested k, in input
// order. Duplicate k values are allowed; a k exceeding n fails the whole
// call with an error wrapping ErrKExceedsN, exactly as FindRanges does for
// the same input. Like FindRanges, it checks the context periodically and
// aborts on cancellation.
func FindRangesMulti(ctx context.Context, d *core.Dataset, ks []int) ([]map[int]Range, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(ks) == 0 {
		return nil, errors.New("sweep: no k values")
	}
	order, err := initialLocalOrder(d)
	if err != nil {
		return nil, err
	}
	n := d.N()
	// Per-k boundary state lives in dataset-local-index slices — the same
	// index-based layout FindRangesScratch uses — instead of three ID-keyed
	// maps per k; the flat arrays drop both the per-event hashing and the
	// map growth that used to dominate multi-k sweeps.
	type state struct {
		k     int
		lo    []float64
		hi    []float64
		flags []uint8
	}
	states := make([]*state, len(ks))
	// byBoundary maps a boundary position (k-1) to the states watching it.
	byBoundary := make(map[int][]*state)
	var widest *state
	for i, k := range ks {
		if k <= 0 {
			return nil, errors.New("sweep: k must be positive")
		}
		if k > n {
			return nil, fmt.Errorf("%w: k=%d, n=%d", ErrKExceedsN, k, n)
		}
		st := &state{
			k:     k,
			lo:    make([]float64, n),
			hi:    make([]float64, n),
			flags: make([]uint8, n),
		}
		// The first k tuples have at most k−1 dominators each, so they
		// survive the skyband pass below at the same positions.
		for _, li := range order[:k] {
			st.flags[li] = stateSeen | stateInTop
		}
		states[i] = st
		byBoundary[k-1] = append(byBoundary[k-1], st)
		if widest == nil || k > widest.k {
			widest = st
		}
	}
	// The skyband heap borrows the widest state's hi array: hi is written
	// at a tuple's every exit from the top-k before it is read, so the
	// borrowed storage needs no reset.
	order, _ = skyband(d.Tuples(), order, widest.k, widest.hi)
	events, canceled := 0, false
	_, err = sweepLocal(d, order, func(e event, p int) bool {
		events++
		if events%cancelCheckInterval == 0 && ctx.Err() != nil {
			canceled = true
			return false
		}
		for _, st := range byBoundary[p] {
			st.hi[e.above] = e.theta
			st.flags[e.above] &^= stateInTop
			if st.flags[e.below]&stateSeen == 0 {
				st.lo[e.below] = e.theta
				st.flags[e.below] |= stateSeen
			}
			st.flags[e.below] |= stateInTop
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if canceled {
		return nil, fmt.Errorf("sweep: canceled after %d events: %w", events, ctx.Err())
	}
	ts := d.Tuples()
	out := make([]map[int]Range, len(states))
	for i, st := range states {
		m := make(map[int]Range, 2*st.k)
		for li := 0; li < n; li++ {
			f := st.flags[li]
			if f&stateSeen == 0 {
				continue
			}
			hi := st.hi[li]
			if f&stateInTop != 0 {
				hi = geom.HalfPi
			}
			id := ts[li].ID
			m[id] = Range{ID: id, Lo: st.lo[li], Hi: hi}
		}
		out[i] = m
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
// all algorithms' outputs for the cost of one O(n²) pass.
func ExactRankRegretMulti(d *core.Dataset, subsets [][]int) ([]int, error) {
	out := make([]int, len(subsets))
	// Membership is a local-index bool slice per tracker, not an ID-keyed
	// map: the sweep tests membership twice per event per tracker, so the
	// flat array keeps the grading pass hash-free.
	type tracker struct {
		member []bool // by dataset-local index
		minPos int
		worst  int
	}
	order, err := initialLocalOrder(d)
	if err != nil {
		return nil, err
	}
	trackers := make([]*tracker, len(subsets))
	anyActive := false
	for si, ids := range subsets {
		if len(ids) == 0 {
			out[si] = d.N() + 1
			continue
		}
		tr := &tracker{member: make([]bool, d.N()), minPos: math.MaxInt}
		for _, id := range ids {
			li := d.IndexOf(id)
			if li < 0 {
				return nil, errors.New("sweep: unknown tuple ID in subset")
			}
			tr.member[li] = true
		}
		for p, li := range order {
			if tr.member[li] {
				tr.minPos = p
				break
			}
		}
		if tr.minPos == math.MaxInt {
			return nil, errors.New("sweep: subset has no member in dataset")
		}
		tr.worst = tr.minPos
		trackers[si] = tr
		anyActive = true
	}
	if !anyActive {
		return out, nil
	}
	_, err = sweepLocal(d, order, func(e event, p int) bool {
		for _, tr := range trackers {
			if tr == nil {
				continue
			}
			ma, mb := tr.member[e.above], tr.member[e.below]
			if ma == mb {
				continue
			}
			if ma {
				if p == tr.minPos {
					tr.minPos = p + 1
					if tr.minPos > tr.worst {
						tr.worst = tr.minPos
					}
				}
			} else if p+1 == tr.minPos {
				tr.minPos = p
			}
		}
		return true
	})
	if err != nil {
		return nil, err
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
// counterpart of the sampled estimator used in higher dimensions.
func ExactRankRegret(d *core.Dataset, ids []int) (int, error) {
	if len(ids) == 0 {
		return d.N() + 1, nil
	}
	order, err := initialLocalOrder(d)
	if err != nil {
		return 0, err
	}
	member := make([]bool, d.N()) // by dataset-local index
	for _, id := range ids {
		li := d.IndexOf(id)
		if li < 0 {
			return 0, errors.New("sweep: unknown tuple ID in subset")
		}
		member[li] = true
	}
	minPos := math.MaxInt
	for p, li := range order {
		if member[li] {
			minPos = p
			break
		}
	}
	if minPos == math.MaxInt {
		return 0, errors.New("sweep: subset has no member in dataset")
	}
	worst := minPos
	_, err = sweepLocal(d, order, func(e event, p int) bool {
		ma, mb := member[e.above], member[e.below]
		if ma == mb {
			return true
		}
		if ma {
			// The member moves down from p to p+1.
			if p == minPos {
				minPos = p + 1
				if minPos > worst {
					worst = minPos
				}
			}
			return true
		}
		// The member moves up from p+1 to p.
		if p+1 == minPos {
			minPos = p
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return worst + 1, nil
}
