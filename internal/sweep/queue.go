package sweep

import "slices"

// eventQueue holds the event loop's pending exchanges: a binary min-heap
// with one entry per adjacent pair of the swept order that crosses ahead
// of the sweep, ordered by event key and then by the local index of the
// pair's upper tuple. No two adjacent pairs share an upper tuple, so that
// order is total. index maps each position p of the order to the heap
// slot of the entry for the pair at (p, p+1), or -1 when the pair has
// none. An exchange at p changes only the pairs at p−1 and p+1, and index
// lets the loop rekey their entries in place: the heap never holds an
// entry for a pair that is no longer adjacent.
type eventQueue struct {
	heap  []queued
	index []int // heap slot by position, or -1
}

// queued is one entry: the pair at positions (pos, pos+1), whose upper
// tuple has local index above, exchanges at key theta.
type queued struct {
	theta float64
	above int
	pos   int
}

func (a queued) before(b queued) bool {
	if a.theta != b.theta {
		return a.theta < b.theta
	}
	return a.above < b.above
}

// reset empties the queue for an order of n tuples. The heap and the
// index are sized up front for the order's n−1 adjacent pairs, so a cold
// arena does not grow them one doubling at a time.
func (q *eventQueue) reset(n int) {
	pairs := max(n-1, 0)
	q.heap = slices.Grow(q.heap[:0], pairs)
	q.index = grow(q.index, pairs)
	for p := range q.index {
		q.index[p] = -1
	}
}

// pop removes and returns the earliest entry, if it is keyed below end.
// The last entry fills its slot.
func (q *eventQueue) pop(end float64) (queued, bool) {
	if len(q.heap) == 0 || q.heap[0].theta >= end {
		return queued{}, false
	}
	top := q.heap[0]
	q.index[top.pos] = -1
	last := len(q.heap) - 1
	e := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.fix(0, e)
	}
	return top, true
}

// set gives the pair at e.pos the entry e, replacing the one it has.
func (q *eventQueue) set(e queued) {
	i := q.index[e.pos]
	if i < 0 {
		i = len(q.heap)
		q.heap = append(q.heap, e)
	}
	q.fix(i, e)
}

// fix places e at heap slot i, whose entry it replaces, and moves it up
// or down to where the heap order puts it.
func (q *eventQueue) fix(i int, e queued) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q.heap[parent]) {
			break
		}
		q.put(i, q.heap[parent])
		i = parent
	}
	for n := len(q.heap); ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.heap[r].before(q.heap[c]) {
			c = r
		}
		if !q.heap[c].before(e) {
			break
		}
		q.put(i, q.heap[c])
		i = c
	}
	q.put(i, e)
}

func (q *eventQueue) put(i int, e queued) {
	q.heap[i] = e
	q.index[e.pos] = i
}
