package shard

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"rrr/internal/core"
	"rrr/internal/geom"
	"rrr/internal/topk"
)

// randomDataset builds a seeded uniform dataset in [0,1]^d.
func randomDataset(t *testing.T, n, d int, seed int64) *core.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	for i := range points {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		points[i] = row
	}
	ds, err := core.NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// checkPartition asserts the plan's shards are a disjoint cover of the
// dataset's IDs.
func checkPartition(t *testing.T, d *core.Dataset, pl *Plan) {
	t.Helper()
	seen := make(map[int]int)
	total := 0
	for i := 0; i < pl.P(); i++ {
		sd := pl.Shard(i)
		if sd.N() == 0 {
			t.Fatalf("shard %d is empty", i)
		}
		if sd.Dims() != d.Dims() {
			t.Fatalf("shard %d has %d dims, want %d", i, sd.Dims(), d.Dims())
		}
		for _, tu := range sd.Tuples() {
			if prev, dup := seen[tu.ID]; dup {
				t.Fatalf("tuple %d in shards %d and %d", tu.ID, prev, i)
			}
			seen[tu.ID] = i
			total++
		}
	}
	if total != d.N() {
		t.Fatalf("shards hold %d tuples, dataset has %d", total, d.N())
	}
}

func TestNewPlanStrategies(t *testing.T) {
	d := randomDataset(t, 101, 3, 1)
	for _, p := range []int{1, 2, 4, 7, 101, 500} {
		pl, err := NewPlan(d, p, Contiguous)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		want := min(p, d.N())
		if pl.P() != want || pl.N() != d.N() {
			t.Fatalf("p=%d: P()=%d N()=%d, want %d and %d", p, pl.P(), pl.N(), want, d.N())
		}
		checkPartition(t, d, pl)
	}
	if _, err := NewPlan(d, 0, Contiguous); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewPlan(nil, 2, Contiguous); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := NewPlan(d, 2, Contiguous+1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestCandidatesContainTopK is the containment property the pools rest
// on: for many random functions, the global top-k is inside the candidate
// pool — for every extractor and shard count.
func TestCandidatesContainTopK(t *testing.T) {
	const k = 8
	cases := []struct {
		name string
		dims int
		ex   Extractor
	}{
		{"topkranges-2d", 2, TopKRanges},
		{"dominance-3d", 3, Dominance},
		{"dominance-2d", 2, Dominance},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := randomDataset(t, 300, tc.dims, 7)
			for _, p := range []int{1, 2, 4, 7} {
				pl, err := NewPlan(d, p, Contiguous)
				if err != nil {
					t.Fatal(err)
				}
				pool, stats, err := Candidates(context.Background(), pl, k, tc.ex, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if stats.ShardsDone != pl.P() || stats.Candidates != len(pool) || stats.Input != d.N() {
					t.Fatalf("stats %+v inconsistent (P=%d, pool=%d, n=%d)", stats, pl.P(), len(pool), d.N())
				}
				if !sort.IntsAreSorted(pool) {
					t.Fatal("pool not sorted")
				}
				member := make(map[int]bool, len(pool))
				for _, id := range pool {
					if member[id] {
						t.Fatalf("duplicate candidate %d", id)
					}
					member[id] = true
				}
				rng := rand.New(rand.NewSource(11))
				for trial := 0; trial < 200; trial++ {
					f := geom.RandomFunc(tc.dims, rng)
					for _, id := range topk.TopK(d, f, k) {
						if !member[id] {
							t.Fatalf("p=%d: top-k member %d missing from pool", p, id)
						}
					}
				}
			}
		})
	}
}

// TestReducedTopKEqualsFull asserts the reduce-phase equivalence directly:
// on the candidate pool (as a dataset), every sampled function's top-k is
// identical — IDs and order — to the full dataset's.
func TestReducedTopKEqualsFull(t *testing.T) {
	const k = 10
	d := randomDataset(t, 400, 3, 9)
	pl, err := NewPlan(d, 7, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	pool, _, err := Candidates(context.Background(), pl, k, Dominance, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) >= d.N() {
		t.Fatalf("no pruning happened (pool %d of %d); test is vacuous", len(pool), d.N())
	}
	sub, err := d.Subset(pool)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := core.FromTuples(sub)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		f := geom.RandomFunc(3, rng)
		full := topk.TopK(d, f, k)
		red := topk.TopK(cd, f, k)
		if len(full) != len(red) {
			t.Fatalf("trial %d: lengths differ", trial)
		}
		for i := range full {
			if full[i] != red[i] {
				t.Fatalf("trial %d: top-k diverges at rank %d: full=%v reduced=%v", trial, i, full, red)
			}
		}
	}
}

func TestCandidatesSmallShards(t *testing.T) {
	// Shards no larger than k contribute everything: pool = whole dataset.
	d := randomDataset(t, 40, 2, 5)
	pl, err := NewPlan(d, 40, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	pool, stats, err := Candidates(context.Background(), pl, 5, TopKRanges, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != d.N() {
		t.Fatalf("pool %d, want all %d", len(pool), d.N())
	}
	if stats.PruneRatio() != 0 {
		t.Fatalf("prune ratio %v, want 0", stats.PruneRatio())
	}
}

// TestCandidatesCanceled: the dominance scan honors cancellation, so an
// extraction is bounded by the caller's context.
func TestCandidatesCanceled(t *testing.T) {
	d := randomDataset(t, 2000, 3, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 4} {
		pl, err := NewPlan(d, p, Contiguous)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := Candidates(ctx, pl, 10, Dominance, Options{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: err = %v, want context.Canceled", p, err)
		}
		if stats.ShardsDone != 0 || stats.Candidates != 0 {
			t.Fatalf("p=%d: canceled extraction reported progress %+v", p, stats)
		}
	}
}

func TestCandidatesArgErrors(t *testing.T) {
	d := randomDataset(t, 10, 2, 8)
	pl, _ := NewPlan(d, 2, Contiguous)
	if _, _, err := Candidates(context.Background(), pl, 0, Dominance, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := Candidates(context.Background(), nil, 3, Dominance, Options{}); err == nil {
		t.Fatal("nil plan accepted")
	}
}
