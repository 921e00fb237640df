package algo

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"rrr/internal/core"
	"rrr/internal/geom"
	"rrr/internal/topk"
)

// PickStrategy selects which common tuple MDRC assigns to a rectangle when
// several tuples appear in the top-k of all its corners.
type PickStrategy int

const (
	// PickFirst takes the common tuple ranked best at the rectangle's
	// first corner — the paper's "return I[1]". The default.
	PickFirst PickStrategy = iota
	// PickMinMaxRank takes the common tuple whose worst rank across the
	// corners is smallest, a greedy refinement benchmarked as an ablation.
	PickMinMaxRank
)

// MDRCOptions configures MDRC. The zero value reproduces the paper:
// first-common-item picks, memoized corner top-k queries, and a minimum
// rectangle width of 1e-6 radians before the fallback fires.
type MDRCOptions struct {
	Pick PickStrategy
	// MinWidth stops the recursion: a rectangle narrower than this on
	// every axis whose corners still share no top-k tuple is resolved by
	// assigning the top-1 of its center function (counted in
	// Stats.Fallbacks; never observed on the paper's workloads).
	// Default 1e-6.
	MinWidth float64
	// MaxNodes bounds the recursion tree (default 200,000). For k ≥ 2
	// the tree stays tiny (corner top-k sets intersect after a few
	// splits), but at k = 1 adjacent top-1 regions share no tuple and the
	// subdivision would otherwise trace every region boundary down to
	// MinWidth — exponential in the angle-space dimension. Once the
	// budget is reached every remaining rectangle is resolved by the
	// center-function fallback, preserving coverage at the cost of the
	// Theorem 6 bound on those rectangles (visible in Stats.Fallbacks) —
	// unless HardMaxNodes makes exhaustion an error instead.
	MaxNodes int
	// HardMaxNodes turns the MaxNodes cap into a hard budget: reaching it
	// aborts the solve with an *Interrupted error wrapping ErrBudget,
	// instead of degrading to the center-function fallback.
	HardMaxNodes bool
	// DisableMemo turns off the corner top-k cache (ablation).
	DisableMemo bool
	// OnProgress, if non-nil, receives the running stats every
	// progressInterval recursion nodes.
	OnProgress func(Stats)
}

// MDRC runs the paper's function-space partitioning algorithm (Section
// 5.3, Algorithm 5). The angle space [0, π/2]^{d−1} is split recursively,
// round-robin across axes; a rectangle whose 2^{d−1} corner functions share
// a top-k tuple is assigned that tuple, otherwise it is bisected. Theorem 6
// bounds the output's rank-regret by d·k; the experiments (paper's and
// ours) observe ≤ k.
//
// The context is checked at every recursion node — the k = 1 corner case
// makes the tree explode, so cancellation must reach deep into it. A
// canceled or expired context, or an exhausted hard node budget, returns
// an *Interrupted error carrying the nodes visited.
func MDRC(ctx context.Context, d *core.Dataset, k int, opt MDRCOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validate(d, k); err != nil {
		return nil, err
	}
	if d.Dims() < 2 {
		return nil, errors.New("algo: MDRC requires at least 2 attributes")
	}
	minWidth := opt.MinWidth
	if minWidth <= 0 {
		minWidth = 1e-6
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200_000
	}
	if k > d.N() {
		k = d.N()
	}
	corners := 1 << uint(d.Dims()-1)
	m := &mdrcRun{
		ctx:      ctx,
		d:        d,
		k:        k,
		opt:      opt,
		minWidth: minWidth,
		maxNodes: maxNodes,
		workers:  runtime.GOMAXPROCS(0),
		cache:    make(map[string][]idRank),
		theta:    make([]float64, d.Dims()-1),
		w:        make([]float64, corners*d.Dims()),
		keys:     make([]byte, corners*8*d.Dims()),
		lists:    make([][]idRank, corners),
		sc:       make([]topk.Scratch, corners),
		from:     make([]int, corners),
		pos:      make([]int, corners),
	}
	var picked []int
	if err := m.recurse(geom.FullAngleSpace(d.Dims()), 0, &picked); err != nil {
		return nil, &Interrupted{Stats: m.stats, Err: err}
	}
	return finish(picked, m.stats), nil
}

type mdrcRun struct {
	ctx      context.Context
	d        *core.Dataset
	k        int
	opt      MDRCOptions
	minWidth float64
	maxNodes int
	// workers bounds a node's concurrent corner scans. A node has 2^(d−1)
	// corners; each new weight vector among them costs a top-k scan, at
	// most O(n log k) and usually cut short by the scan's norm-bound early
	// exit. The scans are independent, so they run concurrently, on up to
	// GOMAXPROCS goroutines; results are identical for any count.
	workers int
	cache   map[string][]idRank
	stats   Stats
	// Per-node buffers, reused at every node. Corner i's angles, weight
	// vector and memo key are the i-th stride of theta, w and keys;
	// lists[i] is its top-k answer and sc[i] the arena its scan runs in.
	// scan lists the corners this node scans; from[i] is the corner whose
	// answer corner i takes; pos holds commonTuple's merge cursors.
	theta, w        []float64
	keys            []byte
	lists           [][]idRank
	sc              []topk.Scratch
	scan, from, pos []int
}

// idRank is one entry of a corner's top-k answer: a tuple ID and its
// 0-based rank at that corner. Answers are kept sorted by ID, which is
// the order commonTuple merges them in.
type idRank struct {
	id, rank int
}

// sortedByID returns the rank-ordered IDs as idRanks sorted by ID.
func sortedByID(ranked []int) []idRank {
	out := make([]idRank, len(ranked))
	for r, id := range ranked {
		out[r] = idRank{id, r}
	}
	slices.SortFunc(out, func(a, b idRank) int { return cmp.Compare(a.id, b.id) })
	return out
}

// cornerLists fills m.lists with the top-k answer at every corner of r.
// The memo is keyed by the corner's weight vector, not its angles:
// sin 0 = 0 exactly, so on every θ_i = 0 face different angle corners
// give the same function. Each distinct function is scanned once per run
// (every corner at every node when memoization is disabled): sibling
// rectangles share half their corners, and a node's θ_i = 0 corners share
// one function. A node's scans are independent and run in parallel;
// nodes run serially, so the stats and output are identical for any
// worker count.
func (m *mdrcRun) cornerLists(r geom.Rect) {
	corners, d := len(m.lists), m.d.Dims()
	kw := 8 * d
	key := func(i int) []byte { return m.keys[i*kw : (i+1)*kw] }
	m.scan = m.scan[:0]
	for i := 0; i < corners; i++ {
		w := m.w[i*d : (i+1)*d]
		r.CornerInto(m.theta, i)
		geom.AnglesToWeightInto(w, m.theta)
		for j, v := range w {
			binary.LittleEndian.PutUint64(key(i)[8*j:], math.Float64bits(v))
		}
		m.from[i] = i
		if m.opt.DisableMemo {
			m.scan = append(m.scan, i)
			continue
		}
		if c, ok := m.cache[string(key(i))]; ok {
			m.lists[i] = c
			continue
		}
		for _, j := range m.scan {
			if string(key(j)) == string(key(i)) {
				m.from[i] = j
				break
			}
		}
		if m.from[i] == i {
			m.scan = append(m.scan, i)
		}
	}
	m.stats.TopKQueries += len(m.scan)
	if !m.opt.DisableMemo {
		m.stats.CacheHits += corners - len(m.scan)
	}
	query := func(i int) {
		f := core.LinearFunc{W: m.w[i*d : (i+1)*d]}
		m.lists[i] = sortedByID(topk.TopKScratch(m.d, f, m.k, &m.sc[i]))
	}
	if len(m.scan) == 1 || m.workers <= 1 {
		for _, i := range m.scan {
			query(i)
		}
	} else if len(m.scan) > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, m.workers)
		for _, i := range m.scan {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				query(i)
				<-sem
			}()
		}
		wg.Wait()
	}
	for i, j := range m.from {
		m.lists[i] = m.lists[j]
	}
	if !m.opt.DisableMemo {
		for _, i := range m.scan {
			m.cache[string(key(i))] = m.lists[i]
		}
	}
}

func (m *mdrcRun) recurse(r geom.Rect, level int, picked *[]int) error {
	// The per-node check is what bounds cancellation latency: every node
	// costs up to 2^{d−1} corner scans, so nothing runs long between two
	// checks even when the k = 1 pathology makes the tree enormous.
	if err := m.ctx.Err(); err != nil {
		return err
	}
	m.stats.Nodes++
	if m.opt.HardMaxNodes && m.stats.Nodes > m.maxNodes {
		return fmt.Errorf("%w: node budget %d", ErrBudget, m.maxNodes)
	}
	if m.opt.OnProgress != nil && m.stats.Nodes%progressInterval == 0 {
		m.opt.OnProgress(m.stats)
	}
	if level > m.stats.MaxDepth {
		m.stats.MaxDepth = level
	}
	m.cornerLists(r)
	if id, ok := m.commonTuple(m.lists); ok {
		*picked = append(*picked, id)
		return nil
	}
	// The node-budget fallback applies only in soft mode: with HardMaxNodes
	// the budget is a contract, and hitting it must surface as ErrBudget at
	// the next node rather than silently degrading the last rectangles.
	if r.MaxWidth() < m.minWidth || (!m.opt.HardMaxNodes && m.stats.Nodes >= m.maxNodes) {
		// Give the sliver the best tuple of its center; Theorem 1 no
		// longer bounds its rank for the whole rectangle, so count it.
		m.stats.Fallbacks++
		top := topk.TopK(m.d, geom.FuncFromAngles(r.Center()), 1)
		*picked = append(*picked, top[0])
		return nil
	}
	axis := level % r.Dim()
	lo, hi := r.Split(axis)
	if err := m.recurse(lo, level+1, picked); err != nil {
		return err
	}
	return m.recurse(hi, level+1, picked)
}

// commonTuple intersects the corner top-k lists (Algorithm 5 line 2) and
// picks the representative per the configured strategy. It merges the
// ID-sorted lists, so it needs no memory beyond them, however large or
// sparse the tuple IDs are.
func (m *mdrcRun) commonTuple(lists [][]idRank) (int, bool) {
	// pos[c] is the merge cursor into lists[c].
	pos := m.pos
	clear(pos)
	best, bestKey := 0, math.MaxInt
merge:
	for _, e := range lists[0] {
		worst := e.rank
		for c := 1; c < len(lists); c++ {
			l := lists[c]
			for pos[c] < len(l) && l[pos[c]].id < e.id {
				pos[c]++
			}
			if pos[c] == len(l) {
				break merge // no later ID of lists[0] is in lists[c]
			}
			if l[pos[c]].id != e.id {
				continue merge
			}
			worst = max(worst, l[pos[c]].rank)
		}
		// PickFirst takes the common tuple ranked best at the first
		// corner; PickMinMaxRank the one with the smallest worst rank,
		// equal worst ranks going to the smaller ID. The merge visits IDs
		// ascending, so a strict < keeps the smaller ID on ties.
		key := e.rank
		if m.opt.Pick == PickMinMaxRank {
			key = worst
		}
		if key < bestKey {
			best, bestKey = e.id, key
		}
	}
	return best, bestKey < math.MaxInt
}
