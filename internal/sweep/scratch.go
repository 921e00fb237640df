package sweep

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rrr/internal/core"
	"rrr/internal/geom"
)

// Scratch is a reusable arena for the sweep's per-solve state: the rank
// order and position arrays, the k-skyband heap, the event heap, the
// pending-pair set, and the per-tuple boundary state of FindRangesScratch.
// A warm Scratch makes repeated sweeps over same-sized datasets
// allocation-free — every slice is resized in place and the pending set's
// table is rewiped, not reallocated.
//
// A Scratch is owned by exactly one sweep at a time: it is not safe for
// concurrent use, and the []Range returned by FindRangesScratch aliases the
// arena, staying valid only until the Scratch's next use. The zero value is
// ready to use.
type Scratch struct {
	order   []int
	pos     []int
	heap    eventHeap
	pending pairSet
	sorter  initialSorter
	band    []float64 // the k-skyband pass's heap of x2 values

	// FindRangesScratch per-tuple boundary state, indexed by dataset-local
	// index instead of the ID-keyed maps the legacy API used.
	lo     []float64
	hi     []float64
	flags  []uint8
	ranges []Range
}

const (
	stateSeen  uint8 = 1 << iota // tuple has entered the top-k at least once
	stateInTop                   // tuple is in the top-k right now
)

// initialSorter sorts local indexes by the library's initial-order rule
// (x1 desc, x2 desc, ID asc) through a pointer receiver, so the sort costs
// no closure allocation the way sort.Slice does.
type initialSorter struct {
	ts  []core.Tuple
	idx []int
}

func (s *initialSorter) Len() int      { return len(s.idx) }
func (s *initialSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *initialSorter) Less(a, b int) bool {
	ta, tb := s.ts[s.idx[a]], s.ts[s.idx[b]]
	if ta.Attrs[0] != tb.Attrs[0] {
		return ta.Attrs[0] > tb.Attrs[0]
	}
	if ta.Attrs[1] != tb.Attrs[1] {
		return ta.Attrs[1] > tb.Attrs[1]
	}
	return ta.ID < tb.ID
}

// growInts resizes s to n reusing capacity; contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growBytes(s []uint8, n int) []uint8 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint8, n)
}

// initOrder fills sc.order with the initial rank order, reusing the
// arena's slice.
func (sc *Scratch) initOrder(d *core.Dataset) error {
	if d.Dims() != 2 {
		return errors.New("sweep: requires a 2-D dataset")
	}
	sc.order = growInts(sc.order, d.N())
	for i := range sc.order {
		sc.order[i] = i
	}
	sc.sorter.ts, sc.sorter.idx = d.Tuples(), sc.order
	sort.Sort(&sc.sorter)
	sc.sorter.ts, sc.sorter.idx = nil, nil // do not retain the dataset
	return nil
}

// resetQueue empties the event heap and pending set, keeping their storage.
func (sc *Scratch) resetQueue() {
	sc.heap = sc.heap[:0]
	sc.pending.reset()
}

// schedule pushes the exchange event for the adjacent pair at positions
// (p, p+1) when it will cross ahead of the sweep — the arena twin of the
// closure inside sweepLocal. n is the dataset size, the stride of the
// pending-pair key; the order itself may be shorter.
func (sc *Scratch) schedule(p, n int, ts []core.Tuple) {
	if p < 0 || p+1 >= len(sc.order) {
		return
	}
	u, v := sc.order[p], sc.order[p+1]
	// v overtakes u at larger angles only if v is strictly better on x2;
	// otherwise their crossing (if any) is behind the sweep.
	if ts[v].Attrs[1] <= ts[u].Attrs[1] {
		return
	}
	theta, ok := geom.CrossAngle2D(ts[u], ts[v])
	if !ok {
		return
	}
	if !sc.pending.insert(int64(u)*int64(n) + int64(v)) {
		return
	}
	sc.heap.push(event{theta: theta, above: u, below: v})
}

// FindRangesScratch is FindRanges computed on a caller-owned arena: it
// returns one Range per tuple that is ever in the top-k, ordered by
// dataset-local index. The returned slice aliases sc and is valid only
// until the Scratch's next use; callers that need to keep it must copy.
// With a warm Scratch the whole computation allocates nothing. A nil sc
// uses a temporary arena, making the call equivalent to FindRanges modulo
// the output container.
//
// The ranges are the same set FindRanges returns — only the container
// (ordered slice vs ID-keyed map) differs.
func FindRangesScratch(ctx context.Context, d *core.Dataset, k int, sc *Scratch) ([]Range, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sc == nil {
		sc = new(Scratch)
	}
	if k <= 0 {
		return nil, errors.New("sweep: k must be positive")
	}
	if err := sc.initOrder(d); err != nil {
		return nil, err
	}
	n := d.N()
	if k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrKExceedsN, k, n)
	}
	ts := d.Tuples()
	// Sweep only the k-skyband: the dropped tuples never reach the top-k
	// boundary. Local indexes stay dataset-wide, so pos, the boundary
	// state and the pending-pair key keep their full size n.
	sc.band = growFloats(sc.band, n) // sized by n, not k, so any k reuses it
	sc.order, sc.band = skyband(ts, sc.order, k, sc.band)
	m := len(sc.order)
	sc.pos = growInts(sc.pos, n)
	for p, li := range sc.order {
		sc.pos[li] = p
	}
	sc.lo = growFloats(sc.lo, n)
	sc.hi = growFloats(sc.hi, n)
	sc.flags = growBytes(sc.flags, n)
	for i := range sc.flags {
		sc.flags[i] = 0
	}
	for _, li := range sc.order[:k] {
		sc.lo[li] = 0
		sc.flags[li] = stateSeen | stateInTop
	}
	sc.resetQueue()
	for p := 0; p < m-1; p++ {
		sc.schedule(p, n, ts)
	}
	// The event loop mirrors sweepLocal exactly (same heap order, same
	// staleness rule), inlined here so the boundary bookkeeping runs on
	// local-index slices with no callback in the way.
	events := 0
	for len(sc.heap) > 0 {
		e := sc.heap.pop()
		sc.pending.remove(int64(e.above)*int64(n) + int64(e.below))
		p := sc.pos[e.above]
		if p+1 >= m || sc.order[p+1] != e.below {
			continue // stale: pair separated; rescheduled on re-adjacency
		}
		events++
		if events%cancelCheckInterval == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("sweep: canceled after %d events: %w", events, ctx.Err())
		}
		if p == k-1 {
			// e.above leaves the top-k, e.below enters.
			sc.hi[e.above] = e.theta
			sc.flags[e.above] &^= stateInTop
			if sc.flags[e.below]&stateSeen == 0 {
				sc.lo[e.below] = e.theta
				sc.flags[e.below] |= stateSeen
			}
			sc.flags[e.below] |= stateInTop
		}
		sc.order[p], sc.order[p+1] = e.below, e.above
		sc.pos[e.above] = p + 1
		sc.pos[e.below] = p
		sc.schedule(p-1, n, ts)
		sc.schedule(p+1, n, ts)
	}
	sc.ranges = sc.ranges[:0]
	for li := 0; li < n; li++ {
		f := sc.flags[li]
		if f&stateSeen == 0 {
			continue
		}
		hi := sc.hi[li]
		if f&stateInTop != 0 {
			hi = geom.HalfPi
		}
		sc.ranges = append(sc.ranges, Range{ID: ts[li].ID, Lo: sc.lo[li], Hi: hi})
	}
	return sc.ranges, nil
}
