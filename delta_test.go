package rrr_test

// The delta engine's equivalence suite: for random mutation sequences
// across data shapes and algorithms, a revalidated or repaired answer must
// be indistinguishable from a fresh solve on the mutated table — identical
// IDs on the deterministic paths (2DRRR, MDRC), guarantee-checked
// (rank-regret ≤ k) for sampled MDRRR.

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"rrr"
	"rrr/internal/delta"
	"rrr/internal/service"
	"rrr/internal/wal"
)

// mutator drives a deterministic pseudo-random mutation sequence over a
// table, steering between batch shapes that exercise all three
// classification outcomes.
type mutator struct {
	rng *rand.Rand
	tb  *rrr.Table
}

// step applies one random batch and returns the new table. Shapes:
// bottom-corner appends (dominated: still-exact), near-top appends
// (crossing: repairable), and deletes of a served representative member
// (pool hit: recompute).
func (m *mutator) step(t *testing.T, servedIDs []int) *rrr.Table {
	t.Helper()
	mins, maxs, err := m.tb.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	interior := func(lo, hi float64) []float64 {
		row := make([]float64, m.tb.Dims())
		for j := range row {
			span := maxs[j] - mins[j]
			row[j] = mins[j] + span*(lo+(hi-lo)*m.rng.Float64())
		}
		return row
	}
	var next *rrr.Table
	switch m.rng.Intn(4) {
	case 0, 1: // dominated interior appends
		next, _, err = m.tb.AppendRows([][]float64{interior(0.02, 0.15), interior(0.05, 0.25)})
	case 2: // an append crowding the top corner
		next, _, err = m.tb.AppendRows([][]float64{interior(0.9, 0.99)})
	default: // delete a tuple the current answer serves — a pool member
		next, _, err = m.tb.DeleteRows([]int{servedIDs[m.rng.Intn(len(servedIDs))]})
	}
	if err != nil {
		t.Fatal(err)
	}
	m.tb = next
	return next
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestRevalidateEquivalence runs 10-step random mutation sequences across
// {independent, correlated, anticorrelated} × {2drrr, mdrc} and asserts
// the revalidated/repaired/recomputed answer is exactly the fresh solve on
// the mutated table, with every class exercised somewhere in the grid.
func TestRevalidateEquivalence(t *testing.T) {
	ctx := context.Background()
	const k = 8
	cases := []struct {
		algo rrr.Algorithm
		dims int
	}{
		{rrr.Algo2DRRR, 2},
		{rrr.AlgoMDRC, 3},
	}
	seen := map[rrr.DeltaClass]int{}
	for _, kind := range []string{"independent", "correlated", "anticorrelated"} {
		for _, tc := range cases {
			tb, err := rrr.GenerateTable(kind, 220, tc.dims, 5)
			if err != nil {
				t.Fatal(err)
			}
			solver := rrr.New(rrr.WithAlgorithm(tc.algo), rrr.WithDeltaMaintenance())
			fresh := rrr.New(rrr.WithAlgorithm(tc.algo))
			before, err := tb.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			prev, err := solver.Solve(ctx, before, k)
			if err != nil {
				t.Fatal(err)
			}
			m := &mutator{rng: rand.New(rand.NewSource(int64(len(kind)) + int64(tc.dims)*17)), tb: tb}
			for step := 0; step < 10; step++ {
				next := m.step(t, prev.IDs)
				after, err := next.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				rev, err := solver.Revalidate(ctx, rrr.DiffDatasets(before, after), prev)
				if err != nil {
					t.Fatalf("%s/%s step %d: revalidate: %v", kind, tc.algo, step, err)
				}
				want, err := fresh.Solve(ctx, after, k)
				if err != nil {
					t.Fatalf("%s/%s step %d: fresh solve: %v", kind, tc.algo, step, err)
				}
				if !sameIDs(rev.Result.IDs, want.IDs) {
					t.Fatalf("%s/%s step %d (%v): revalidated IDs %v != fresh %v",
						kind, tc.algo, step, rev.Class, rev.Result.IDs, want.IDs)
				}
				if rev.Result.K != k {
					t.Fatalf("%s/%s step %d: result K = %d, want %d", kind, tc.algo, step, rev.Result.K, k)
				}
				seen[rev.Class]++
				before, prev = after, rev.Result
			}
		}
	}
	for _, class := range []rrr.DeltaClass{rrr.DeltaStillExact, rrr.DeltaRepaired, rrr.DeltaRecomputed} {
		if seen[class] == 0 {
			t.Fatalf("mutation sequences never exercised class %v (distribution %v)", class, seen)
		}
	}
}

// TestRevalidateMDRRRGuarantee runs the same sequences under sampled MDRRR
// and checks the guarantee a fresh solve offers. MDRRR's guarantee is
// probabilistic (it hits the sampled k-set collection), so the bar is the
// one a fresh solve meets: the maintained answer's estimated rank-regret
// is within k, or at least no worse than a fresh solve's on the same
// mutated table.
func TestRevalidateMDRRRGuarantee(t *testing.T) {
	ctx := context.Background()
	const k = 10
	for _, kind := range []string{"independent", "correlated", "anticorrelated"} {
		tb, err := rrr.GenerateTable(kind, 150, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		opts := []rrr.Option{rrr.WithAlgorithm(rrr.AlgoMDRRR), rrr.WithSeed(3), rrr.WithSamplerTermination(60)}
		solver := rrr.New(append(opts, rrr.WithDeltaMaintenance())...)
		fresh := rrr.New(opts...)
		before, err := tb.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		prev, err := solver.Solve(ctx, before, k)
		if err != nil {
			t.Fatal(err)
		}
		m := &mutator{rng: rand.New(rand.NewSource(23)), tb: tb}
		for step := 0; step < 6; step++ {
			next := m.step(t, prev.IDs)
			after, err := next.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			rev, err := solver.Revalidate(ctx, rrr.DiffDatasets(before, after), prev)
			if err != nil {
				t.Fatalf("%s step %d: %v", kind, step, err)
			}
			worst, _, err := rrr.EstimateRankRegret(after, rev.Result.IDs, rrr.EvalOptions{Samples: 3000, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			if worst > k {
				freshRes, err := fresh.Solve(ctx, after, k)
				if err != nil {
					t.Fatal(err)
				}
				freshWorst, _, err := rrr.EstimateRankRegret(after, freshRes.IDs, rrr.EvalOptions{Samples: 3000, Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				if worst > freshWorst {
					t.Fatalf("%s step %d (%v): maintained answer regret %d > k=%d and > fresh solve's %d",
						kind, step, rev.Class, worst, k, freshWorst)
				}
			}
			before, prev = after, rev.Result
		}
	}
}

// TestRevalidateRequirements pins the API preconditions and the cheap
// still-exact path's behavior.
func TestRevalidateRequirements(t *testing.T) {
	ctx := context.Background()
	tb, err := rrr.GenerateTable("independent", 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tb.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	plain := rrr.New()
	res, err := plain.Solve(ctx, d, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 5 {
		t.Fatalf("Result.K = %d, want 5", res.K)
	}
	if _, err := plain.Revalidate(ctx, rrr.DiffDatasets(d, d), res); err == nil {
		t.Fatal("Revalidate without WithDeltaMaintenance succeeded")
	}
	solver := rrr.New(rrr.WithDeltaMaintenance())
	if _, err := solver.Revalidate(ctx, rrr.DiffDatasets(d, d), nil); err == nil {
		t.Fatal("Revalidate with nil prior succeeded")
	}
	if _, err := solver.Revalidate(ctx, rrr.Delta{}, res); err == nil {
		t.Fatal("Revalidate without snapshots succeeded")
	}
	// A no-op delta against a result from a maintenance-enabled solver is
	// still-exact and returns the same IDs.
	res, err = solver.Solve(ctx, d, 5)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := solver.Revalidate(ctx, rrr.DiffDatasets(d, d), res)
	if err != nil {
		t.Fatal(err)
	}
	if rev.Class != rrr.DeltaStillExact || !sameIDs(rev.Result.IDs, res.IDs) {
		t.Fatalf("no-op delta: class %v IDs %v, want still-exact %v", rev.Class, rev.Result.IDs, res.IDs)
	}
	if rev.PoolSize == 0 {
		t.Fatal("still-exact revalidation reported an empty pool")
	}
}

// TestRevalidateKeepsPriorAlgorithm: every verdict answers with the
// algorithm prev was solved with, even when the revalidating Solver is
// configured for another one — here an MDRRR result revalidated by an
// auto Solver, which on its own would run MDRC on 3-D data.
func TestRevalidateKeepsPriorAlgorithm(t *testing.T) {
	ctx := context.Background()
	const k = 10
	tb, err := rrr.GenerateTable("independent", 150, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	before, err := tb.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	prev, err := rrr.New(rrr.WithAlgorithm(rrr.AlgoMDRRR), rrr.WithSeed(3), rrr.WithDeltaMaintenance()).Solve(ctx, before, k)
	if err != nil {
		t.Fatal(err)
	}
	revalidator := rrr.New(rrr.WithSeed(3), rrr.WithDeltaMaintenance())
	mins, maxs, err := tb.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	top := make([]float64, tb.Dims())
	for j := range top {
		top[j] = mins[j] + 0.97*(maxs[j]-mins[j])
	}
	appended, _, err := tb.AppendRows([][]float64{top})
	if err != nil {
		t.Fatal(err)
	}
	deleted, _, err := tb.DeleteRows([]int{prev.IDs[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		after *rrr.Table
		want  rrr.DeltaClass
	}{
		{tb, rrr.DeltaStillExact},
		{appended, rrr.DeltaRepaired},
		{deleted, rrr.DeltaRecomputed},
	} {
		after, err := tc.after.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		rev, err := revalidator.Revalidate(ctx, rrr.DiffDatasets(before, after), prev)
		if err != nil {
			t.Fatalf("%v: %v", tc.want, err)
		}
		if rev.Class != tc.want {
			t.Fatalf("class %v, want %v", rev.Class, tc.want)
		}
		if rev.Result.Algorithm != prev.Algorithm {
			t.Fatalf("%v: result algorithm %s, want prev's %s", rev.Class, rev.Result.Algorithm, prev.Algorithm)
		}
	}
}

// serviceBatch mirrors mutator.step at the service layer: it derives one
// random mutation batch (dominated interior appends, top-corner appends,
// or a delete of a served representative member) from the entry's current
// raw bounds, without applying it — the same batch is fed to several
// services, which must stay indistinguishable.
func serviceBatch(t *testing.T, rng *rand.Rand, e *service.Entry, servedIDs []int) delta.Batch {
	t.Helper()
	mins, maxs, err := e.Table.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	interior := func(lo, hi float64) []float64 {
		row := make([]float64, e.Table.Dims())
		for j := range row {
			span := maxs[j] - mins[j]
			row[j] = mins[j] + span*(lo+(hi-lo)*rng.Float64())
		}
		return row
	}
	switch rng.Intn(4) {
	case 0, 1:
		return delta.Batch{Append: [][]float64{interior(0.02, 0.15), interior(0.05, 0.25)}}
	case 2:
		return delta.Batch{Append: [][]float64{interior(0.9, 0.99)}}
	default:
		return delta.Batch{Delete: []int{servedIDs[rng.Intn(len(servedIDs))]}}
	}
}

// TestPersistedMutationEquivalence extends the equivalence suite across
// the durability boundary: a service that snapshots mid-sequence, keeps a
// WAL, crashes (no final snapshot) and recovers must answer every
// representative query exactly like the uninterrupted in-memory service
// that applied the same mutation sequence — same grid of data shapes and
// deterministic algorithms as TestRevalidateEquivalence.
func TestPersistedMutationEquivalence(t *testing.T) {
	ctx := context.Background()
	const steps, k = 8, 8
	cases := []struct {
		algo string
		dims int
	}{
		{"2drrr", 2},
		{"mdrc", 3},
	}
	for _, kind := range []string{"independent", "correlated", "anticorrelated"} {
		for _, tc := range cases {
			name := kind + "/" + tc.algo
			cfg := service.Config{Seed: 7, DeltaMaintenance: true}
			live := service.New(cfg)
			persisted := service.New(cfg)
			dir := t.TempDir()
			st, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			persisted.AttachStore(st)
			for _, svc := range []*service.Service{live, persisted} {
				if _, err := svc.Registry().Generate("d", kind, 220, tc.dims, 5); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			rng := rand.New(rand.NewSource(int64(len(kind)) + int64(tc.dims)*17))
			rep, err := live.Representative(ctx, "d", k, tc.algo)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for step := 0; step < steps; step++ {
				e, err := live.Registry().Get("d")
				if err != nil {
					t.Fatal(err)
				}
				b := serviceBatch(t, rng, e, rep.IDs)
				for _, svc := range []*service.Service{live, persisted} {
					if _, _, err := svc.Registry().Mutate(context.Background(), "d", b); err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
				}
				if rep, err = live.Representative(ctx, "d", k, tc.algo); err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				if step == steps/2 {
					// Mid-sequence snapshot: recovery below must stitch the
					// snapshot and the WAL records behind it back together.
					if err := persisted.Persist(); err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
				}
			}
			// Crash: close without a final snapshot — the second half of
			// the sequence exists only as WAL records.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			recovered := service.New(cfg)
			st2, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			recovered.AttachStore(st2)
			if _, err := recovered.Recover(ctx); err != nil {
				st2.Close()
				t.Fatalf("%s: recover: %v", name, err)
			}
			le, _ := live.Registry().Get("d")
			re, err := recovered.Registry().Get("d")
			if err != nil {
				st2.Close()
				t.Fatalf("%s: %v", name, err)
			}
			if re.Gen != le.Gen || !re.Table.Equal(le.Table) {
				st2.Close()
				t.Fatalf("%s: recovered table diverges (gen %d vs %d)", name, re.Gen, le.Gen)
			}
			for _, kq := range []int{k, k + 3} {
				want, err := live.Representative(ctx, "d", kq, tc.algo)
				if err != nil {
					st2.Close()
					t.Fatalf("%s k=%d: %v", name, kq, err)
				}
				got, err := recovered.Representative(ctx, "d", kq, tc.algo)
				if err != nil {
					st2.Close()
					t.Fatalf("%s k=%d: %v", name, kq, err)
				}
				if !sameIDs(got.IDs, want.IDs) {
					st2.Close()
					t.Fatalf("%s k=%d: recovered answer %v != live answer %v", name, kq, got.IDs, want.IDs)
				}
			}
			st2.Close()
		}
	}
}

// TestMutateSequenceMatchesFreshSolve drives rrrd's own maintenance path —
// Service.Mutate, where the dataset's maintainer classifies every cached
// key and repairs run on the service's solvers — through seeded random
// mutation sequences, and checks after every batch that each served key
// equals a fresh solve of the entry's data. The grid is the one
// TestPersistedMutationEquivalence runs, with three rank targets cached at
// once; across the run every class must occur.
func TestMutateSequenceMatchesFreshSolve(t *testing.T) {
	ctx := context.Background()
	const steps, seed = 12, 7
	ks := []int{5, 8, 13}
	cases := []struct {
		algo rrr.Algorithm
		dims int
	}{
		{rrr.Algo2DRRR, 2},
		{rrr.AlgoMDRC, 3},
	}
	var total service.MutationStats
	for _, kind := range []string{"independent", "correlated", "anticorrelated"} {
		for _, tc := range cases {
			name := kind + "/" + string(tc.algo)
			svc := service.New(service.Config{Seed: seed, DeltaMaintenance: true})
			if _, err := svc.Registry().Generate("d", kind, 220, tc.dims, 5); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fresh := rrr.New(rrr.WithSeed(seed), rrr.WithAlgorithm(tc.algo))
			rng := rand.New(rand.NewSource(int64(len(kind))*31 + int64(tc.dims)))
			var served []int
			for step := 0; step <= steps; step++ {
				e, err := svc.Registry().Get("d")
				if err != nil {
					t.Fatal(err)
				}
				if step > 0 {
					m, err := svc.Mutate(ctx, "d", serviceBatch(t, rng, e, served))
					if err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
					total.Revalidated += m.Stats.Revalidated
					total.Repaired += m.Stats.Repaired
					total.Recomputed += m.Stats.Recomputed
					if e, err = svc.Registry().Get("d"); err != nil {
						t.Fatal(err)
					}
				}
				for _, k := range ks {
					rep, err := svc.Representative(ctx, "d", k, string(tc.algo))
					if err != nil {
						t.Fatalf("%s step %d k=%d: %v", name, step, k, err)
					}
					want, err := fresh.Solve(ctx, e.Data, k)
					if err != nil {
						t.Fatalf("%s step %d k=%d: fresh solve: %v", name, step, k, err)
					}
					if !sameIDs(rep.IDs, want.IDs) {
						t.Fatalf("%s step %d k=%d: served %v, fresh solve %v", name, step, k, rep.IDs, want.IDs)
					}
					if k == ks[1] {
						served = rep.IDs
					}
				}
			}
		}
	}
	t.Logf("revalidated=%d repaired=%d recomputed=%d", total.Revalidated, total.Repaired, total.Recomputed)
	if total.Revalidated == 0 || total.Repaired == 0 || total.Recomputed == 0 {
		t.Fatalf("a class never occurred: %+v", total)
	}
}
