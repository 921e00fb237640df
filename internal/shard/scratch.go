package shard

import (
	"sort"
	"sync"

	"rrr/internal/core"
	"rrr/internal/sweep"
)

// mapScratch is one extraction worker's reusable working set: the sweep
// arena of the TopKRanges extractor and the dominance extractor's
// sum/order slices. Candidate ID slices — the extractors' outputs — are
// still allocated fresh because callers retain them past the scratch's
// next checkout; only the transient working state is pooled.
type mapScratch struct {
	sweep  sweep.Scratch
	sums   []float64
	order  []int
	sorter dominanceSorter
}

// mapScratches is an explicit free-list (not a sync.Pool, for the same
// determinism reasons as the solver's arena pool: the GC may empty a
// sync.Pool at any time, making the extraction's allocation profile
// nondeterministic). Workers check scratches out per shard; an extraction
// with W workers warms at most W entries.
var mapScratches struct {
	mu   sync.Mutex
	free []*mapScratch
}

func getMapScratch() *mapScratch {
	mapScratches.mu.Lock()
	if n := len(mapScratches.free); n > 0 {
		sc := mapScratches.free[n-1]
		mapScratches.free[n-1] = nil
		mapScratches.free = mapScratches.free[:n-1]
		mapScratches.mu.Unlock()
		return sc
	}
	mapScratches.mu.Unlock()
	return new(mapScratch)
}

func putMapScratch(sc *mapScratch) {
	if sc == nil {
		return
	}
	mapScratches.mu.Lock()
	mapScratches.free = append(mapScratches.free, sc)
	mapScratches.mu.Unlock()
}

// dominanceSorter orders tuple indexes by attribute sum descending, ID
// ascending — the dominance extractor's sort-filter order — as a
// pointer-receiver sort.Interface so sorting reuses the scratch instead of
// allocating a closure per shard.
type dominanceSorter struct {
	sums  []float64
	order []int
	ts    []core.Tuple
}

func (s *dominanceSorter) Len() int      { return len(s.order) }
func (s *dominanceSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *dominanceSorter) Less(a, b int) bool {
	if s.sums[s.order[a]] != s.sums[s.order[b]] {
		return s.sums[s.order[a]] > s.sums[s.order[b]]
	}
	return s.ts[s.order[a]].ID < s.ts[s.order[b]].ID
}

var _ sort.Interface = (*dominanceSorter)(nil)

// growFloats and growInts reslice when capacity suffices, allocating only
// on first use or growth past the high-water mark.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float64, n)
}

func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}
