package sweep

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"rrr/internal/core"
	"rrr/internal/geom"
)

// Scratch is the sweep's arena and its one event loop: the rank order and
// position arrays, the k-skyband heap, the event heap, the pending-pair
// set, the sector bisection's state, and the boundary state of the
// FindRanges kernels. Every consumer runs the loop through it — start,
// then step until it reports no event before the loop's end — and keeps
// its per-event bookkeeping in its own loop body, so no callback sits
// between the loop and the consumer. A warm Scratch makes repeated sweeps
// over same-sized datasets allocation-free: every slice is resized in
// place and the pending set's table is rewiped, not reallocated.
//
// A Scratch is owned by exactly one sweep at a time: it is not safe for
// concurrent use, and the []Range returned by FindRangesScratch aliases the
// arena, staying valid only until the Scratch's next use. The zero value is
// ready to use.
type Scratch struct {
	initial []int // every local index in initial order, or its k-skyband
	order   []int // the order the loop sweeps: initial, or a sector's band
	pos     []int // position in order, by local index
	slot    []int // band slot, by local index: see numberBand
	heap    eventHeap
	pending pairSet
	end     float64 // step applies only events keyed below end
	events  int     // live exchanges applied since initOrder
	sorter  initialSorter
	band    []float64 // the band passes' heap of scores
	sectors bisection

	bound  boundary // FindRangesScratch's single-k tracker
	ranges []Range
}

// initialSorter sorts local indexes by the library's initial-order rule
// (x1 desc, x2 desc, ID asc) through a pointer receiver, so the sort costs
// no closure allocation the way sort.Slice does.
type initialSorter struct {
	ts  []core.Tuple
	idx []int
}

func (s *initialSorter) Len() int           { return len(s.idx) }
func (s *initialSorter) Swap(i, j int)      { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *initialSorter) Less(a, b int) bool { return initialLess(s.ts[s.idx[a]], s.ts[s.idx[b]]) }

// initialLess is the initial-order rule: whether a ranks ahead of b for
// θ → 0⁺. It is a strict total order, since IDs are unique.
func initialLess(a, b core.Tuple) bool {
	if a.Attrs[0] != b.Attrs[0] {
		return a.Attrs[0] > b.Attrs[0]
	}
	if a.Attrs[1] != b.Attrs[1] {
		return a.Attrs[1] > b.Attrs[1]
	}
	return a.ID < b.ID
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

// initOrder fills sc.order with the initial rank order — every tuple's
// local index, sorted for θ → 0⁺ — reusing the arena's slice, and zeroes
// the exchange count.
func (sc *Scratch) initOrder(d *core.Dataset) error {
	if d.Dims() != 2 {
		return errors.New("sweep: requires a 2-D dataset")
	}
	sc.initial = growInts(sc.initial, d.N())
	for i := range sc.initial {
		sc.initial[i] = i
	}
	sc.sorter.ts, sc.sorter.idx = d.Tuples(), sc.initial
	sort.Sort(&sc.sorter)
	sc.sorter.ts, sc.sorter.idx = nil, nil // do not retain the dataset
	sc.order = sc.initial
	sc.events = 0
	return nil
}

// initBand fills sc.order with the k-skyband of d in initial order (see
// skyband) and puts it on the sector stack as the root sector [0, π/2].
// The band is what FindRangesScratch and FindRangesMulti sweep, sector by
// sector (nextLeaf); the tuples it drops never reach the top-k boundary.
func (sc *Scratch) initBand(d *core.Dataset, k int) error {
	if k <= 0 {
		return errors.New("sweep: k must be positive")
	}
	if err := sc.initOrder(d); err != nil {
		return err
	}
	n := d.N()
	if k > n {
		return fmt.Errorf("%w: k=%d, n=%d", ErrKExceedsN, k, n)
	}
	ts := d.Tuples()
	sc.band = growFloats(sc.band, n) // sized by n, not k, so any k reuses it
	sc.order, sc.band = skyband(ts, sc.order, k, sc.band)
	sc.bisect(ts, k)
	return nil
}

// start begins a sweep over sc.order, which holds local indexes of ts in
// the loop's order at the sweep's first angle — all of them in initial
// order, or a sector's band — that ends before the first event keyed at
// or above end. It sets the positions, empties the event queue and
// schedules every adjacent pair. Local indexes stay dataset-wide, so pos
// and the pending-pair key keep their full size len(ts) whatever the
// order covers. The event heap and the pending set are sized up front
// for one event per adjacent pair, so a cold arena does not grow them one
// doubling at a time.
func (sc *Scratch) start(ts []core.Tuple, end float64) {
	sc.pos = growInts(sc.pos, len(ts))
	for p, li := range sc.order {
		sc.pos[li] = p
	}
	sc.heap = slices.Grow(sc.heap[:0], len(sc.order))
	sc.pending.reserve(len(sc.order))
	sc.pending.reset()
	sc.end = end
	for p := 0; p < len(sc.order)-1; p++ {
		sc.schedule(p, ts)
	}
}

// crossing is the loop's exchange rule: the event key at which below
// overtakes above, the tuple ranked just ahead of it, and whether it ever
// does. It does only if below is strictly better on x2; otherwise their
// crossing, if any, is behind the sweep.
func crossing(above, below core.Tuple) (float64, bool) {
	if below.Attrs[1] <= above.Attrs[1] {
		return 0, false
	}
	return geom.CrossAngle2D(above, below)
}

// schedule pushes the exchange event for the adjacent pair at positions
// (p, p+1) when it will cross ahead of the sweep.
func (sc *Scratch) schedule(p int, ts []core.Tuple) {
	if p < 0 || p+1 >= len(sc.order) {
		return
	}
	u, v := sc.order[p], sc.order[p+1]
	theta, ok := crossing(ts[u], ts[v])
	if !ok {
		return
	}
	if !sc.pending.insert(int64(u)*int64(len(ts)) + int64(v)) {
		return
	}
	sc.heap.push(event{theta: theta, above: u, below: v})
}

// step advances the sweep to its next live exchange: it pops events until
// one still names an adjacent pair, swaps the pair in the order,
// reschedules the pairs the swap made adjacent, and returns the exchange
// with the position p it happened at (e.above moved from p to p+1). ok is
// false once no event keyed below the sweep's end is left. ts must be the
// slice start was given.
//
// A scheduled event that finds its pair no longer adjacent is discarded:
// the pair is rescheduled when it becomes adjacent again, which must
// happen before its true crossing angle. That is the classic
// arrangement-sweep recipe, and it handles concurrent crossings (three or
// more tuples exchanging at one angle) without the general-position
// assumption the paper makes.
func (sc *Scratch) step(ts []core.Tuple) (e event, p int, ok bool) {
	n := int64(len(ts))
	for len(sc.heap) > 0 && sc.heap[0].theta < sc.end {
		e = sc.heap.pop()
		sc.pending.remove(int64(e.above)*n + int64(e.below))
		p = sc.pos[e.above]
		if p+1 >= len(sc.order) || sc.order[p+1] != e.below {
			continue // stale: pair separated; rescheduled on re-adjacency
		}
		sc.events++
		sc.order[p], sc.order[p+1] = e.below, e.above
		sc.pos[e.above] = p + 1
		sc.pos[e.below] = p
		sc.schedule(p-1, ts)
		sc.schedule(p+1, ts)
		return e, p, true
	}
	return event{}, 0, false
}

// canceled reports whether the sweep should stop for ctx: it checks the
// context once every cancelCheckInterval exchanges and wraps its error.
// The modulus test is all that inlines into the event loop.
func (sc *Scratch) canceled(ctx context.Context) error {
	if sc.events%cancelCheckInterval != 0 {
		return nil
	}
	return sc.ctxErr(ctx)
}

func (sc *Scratch) ctxErr(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("sweep: canceled after %d events: %w", sc.events, ctx.Err())
}

// numberBand gives each tuple of the k-skyband, in sc.order after
// initBand, its position there as its slot in sc.slot, and every other
// tuple -1; it returns the band's size. The boundary trackers are indexed
// by slot: only band tuples ever enter a top-k, so a tracker is sized by
// the band rather than by n.
func (sc *Scratch) numberBand(n int) int {
	sc.slot = growInts(sc.slot, n)
	for li := range sc.slot {
		sc.slot[li] = -1
	}
	for s, li := range sc.order {
		sc.slot[li] = s
	}
	return len(sc.order)
}

const (
	stateSeen  uint8 = 1 << iota // tuple has entered the top-k at least once
	stateInTop                   // tuple is in the top-k right now
)

// boundary is Algorithm 1's bookkeeping at one rank target k, indexed by
// band slot (numberBand): whether a tuple has entered the top-k, whether
// it is in it now, the angle it first entered (lo) and the angle it last
// left (hi). It sees only the exchanges at position k−1; FindRangesScratch
// keeps one on its arena and FindRangesMulti one per distinct k.
type boundary struct {
	slot   []int // the arena's slot array, by local index
	lo, hi []float64
	flags  []uint8
	seen   int // tuples that have entered the top-k
}

// reset sizes the state for slots band tuples numbered by slot and puts
// top — the top-k at θ = 0 — in range from angle 0. Only flags are
// cleared: lo is written at a tuple's first entry and hi at each exit,
// before either is read.
func (b *boundary) reset(slot []int, slots int, top []int) {
	b.slot = slot
	b.lo = growFloats(b.lo, slots)
	b.hi = growFloats(b.hi, slots)
	b.flags = growBytes(b.flags, slots)
	clear(b.flags)
	for _, li := range top {
		b.lo[slot[li]] = 0
		b.flags[slot[li]] = stateSeen | stateInTop
	}
	b.seen = len(top)
}

// exchange records an exchange at the boundary: e.above leaves the top-k
// at e.theta and e.below enters it.
func (b *boundary) exchange(e event) {
	above, below := b.slot[e.above], b.slot[e.below]
	b.hi[above] = e.theta
	b.flags[above] &^= stateInTop
	if b.flags[below]&stateSeen == 0 {
		b.lo[below] = e.theta
		b.flags[below] |= stateSeen
		b.seen++
	}
	b.flags[below] |= stateInTop
}

// appendRanges appends one Range per tuple that was ever in the top-k, in
// local-index order, walking the slot array; a tuple still in the top-k at
// the end of the sweep keeps its range open to π/2.
func (b *boundary) appendRanges(out []Range, ts []core.Tuple) []Range {
	out = slices.Grow(out, b.seen)
	for li, s := range b.slot {
		if s < 0 || b.flags[s]&stateSeen == 0 {
			continue
		}
		hi := b.hi[s]
		if b.flags[s]&stateInTop != 0 {
			hi = geom.HalfPi
		}
		out = append(out, Range{ID: ts[li].ID, Lo: b.lo[s], Hi: hi})
	}
	return out
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
// (ordered slice vs ID-keyed map) differs. The sweep runs sector by
// sector (see nextLeaf), and one tracker reads every leaf's exchanges at
// position k−1: at a leaf's first angle the top-k is the first k of its
// band, so the tracker carries over from the leaf before.
func FindRangesScratch(ctx context.Context, d *core.Dataset, k int, sc *Scratch) ([]Range, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sc == nil {
		sc = new(Scratch)
	}
	if err := sc.initBand(d, k); err != nil {
		return nil, err
	}
	ts := d.Tuples()
	// The first k tuples have fewer than k dominators, so they head the
	// band at their initial positions.
	sc.bound.reset(sc.slot, sc.numberBand(len(ts)), sc.order[:k])
	for sc.nextLeaf(ts) {
		for {
			e, p, ok := sc.step(ts)
			if !ok {
				break
			}
			if err := sc.canceled(ctx); err != nil {
				return nil, err
			}
			if p == k-1 {
				sc.bound.exchange(e)
			}
		}
	}
	sc.ranges = sc.bound.appendRanges(sc.ranges[:0], ts)
	return sc.ranges, nil
}
