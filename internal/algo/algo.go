// Package algo implements the RRR paper's three algorithms on top of the
// substrate packages:
//
//   - TwoDRRR (Section 4): the 2-D algorithm — Algorithm 1's angular sweep
//     computes, per tuple, the convex closure of the angles at which it is
//     in the top-k; Algorithm 2's greedy covers the function space with the
//     fewest ranges. Guarantees: output no larger than the optimal RRR and
//     rank-regret at most 2k (Theorems 3 and 4).
//   - MDRRR (Section 5.2): hitting set over the collection of k-sets. With
//     the full collection it guarantees rank-regret exactly ≤ k and an
//     O(d·log(d·c)) size ratio. The collection comes from K-SETr sampling
//     (Algorithm 4) by default, or a caller-provided enumeration.
//   - MDRC (Section 5.3): recursive function-space partitioning driven by
//     Theorem 1 — assign to a hyper-rectangle any tuple in the top-k of all
//     its corners, split when none exists. Guarantees rank-regret ≤ d·k
//     (Theorem 6); in the paper's and our experiments it achieves ≤ k.
package algo

import (
	"errors"
	"fmt"
	"sort"

	"rrr/internal/core"
)

// Result is the output of an RRR algorithm: the selected tuple IDs
// (ascending) plus counters describing the work performed.
type Result struct {
	IDs   []int
	Stats Stats
}

// Stats carries per-algorithm instrumentation. Fields irrelevant to the
// algorithm that produced the Result are zero.
type Stats struct {
	// Ranges is the number of tuple ranges produced by Algorithm 1
	// (TwoDRRR only).
	Ranges int
	// KSets is the number of distinct k-sets the hitting set ran over
	// (MDRRR only).
	KSets int
	// SamplerDraws is the number of ranking functions K-SETr sampled
	// (MDRRR with internal sampling only).
	SamplerDraws int
	// SamplerTruncated reports whether K-SETr hit its draw cap before its
	// termination rule fired (MDRRR only).
	SamplerTruncated bool
	// Nodes is the number of recursion-tree nodes visited (MDRC only).
	Nodes int
	// MaxDepth is the deepest recursion level reached (MDRC only).
	MaxDepth int
	// Fallbacks counts leaf rectangles where no common top-k tuple existed
	// at the minimum width, resolved by assigning the center function's
	// top-1 (MDRC only; 0 in every experiment we ran, matching the paper's
	// observation that corners quickly share items).
	Fallbacks int
	// TopKQueries counts the corner top-k scans MDRC actually computed:
	// one per distinct corner weight vector, however many angle corners
	// map to it (every corner at every node when memoization is
	// disabled), and not the top-1 scans of Fallbacks (MDRC only).
	TopKQueries int
	// CacheHits counts the corner visits answered without a scan, from
	// the memo or from a corner of the same node with the same weight
	// vector; with memoization on, TopKQueries + CacheHits is the number
	// of corners visited, Nodes·2^(d−1) (MDRC only).
	CacheHits int
}

// ErrBudget is the cause recorded in Interrupted when a hard node or draw
// budget ran out before the algorithm finished.
var ErrBudget = errors.New("algo: work budget exhausted")

// Interrupted reports a solve that stopped before producing a complete
// representative — context cancellation, deadline expiry, or a hard work
// budget. Stats carries the work performed up to the stop; Err is the
// cause and unwraps to context.Canceled, context.DeadlineExceeded, or
// ErrBudget so callers can branch with errors.Is.
type Interrupted struct {
	Stats Stats
	Err   error
}

func (e *Interrupted) Error() string {
	return fmt.Sprintf("algo: solve interrupted: %v", e.Err)
}

func (e *Interrupted) Unwrap() error { return e.Err }

// progressInterval is how many units of loop work (MDRC nodes, K-SETr
// draws) pass between OnProgress callbacks — frequent enough for live
// dashboards, rare enough to stay invisible in profiles.
const progressInterval = 64

// validate performs the shared argument checking.
func validate(d *core.Dataset, k int) error {
	if d == nil || d.N() == 0 {
		return errors.New("algo: empty dataset")
	}
	if k <= 0 {
		return fmt.Errorf("algo: k must be positive, got %d", k)
	}
	return nil
}

// finish sorts and dedupes the selected IDs.
func finish(ids []int, stats Stats) *Result {
	return &Result{IDs: finishInPlace(ids), Stats: stats}
}

// finishInPlace sorts and dedupes ids in place — the allocation-free core
// of finish, shared with the arena-backed solve paths.
func finishInPlace(ids []int) []int {
	sort.Ints(ids)
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}
