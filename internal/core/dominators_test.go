package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rrr/internal/core"
	"rrr/internal/dataset"
	"rrr/internal/delta"
	"rrr/internal/kset"
	"rrr/internal/shard"
)

// bruteDominators counts each tuple's AlwaysOutranks dominators pair by
// pair: the oracle of the index.
func bruteDominators(d *core.Dataset) []int32 {
	ts := d.Tuples()
	out := make([]int32, len(ts))
	for i, t := range ts {
		for j, u := range ts {
			if i != j && core.AlwaysOutranks(u, t) {
				out[i]++
			}
		}
	}
	return out
}

// tieHeavyDataset decodes bytes into a dataset of at most 16 tuples of
// 2–5 attributes whose values lie on the grid {0, ½, 1}, with +0 and −0
// both present, repeated rows, and sparse permuted IDs: the inputs on
// which the index's tie-break rule is easiest to get wrong.
func tieHeavyDataset(data []byte) *core.Dataset {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	dims := 2 + int(next()%4)
	n := 1 + int(next()%16)
	grid := []float64{0, math.Copysign(0, -1), 0.5, 1}
	ts := make([]core.Tuple, n)
	for i := range ts {
		attrs := make([]float64, dims)
		if b := next(); i > 0 && b%4 == 0 {
			copy(attrs, ts[int(b/4)%i].Attrs)
		} else {
			for j := range attrs {
				attrs[j] = grid[next()%4]
			}
		}
		ts[i] = core.Tuple{ID: 3*i + int(next()%3), Attrs: attrs}
	}
	for i := n - 1; i > 0; i-- {
		j := int(next()) % (i + 1)
		ts[i].ID, ts[j].ID = ts[j].ID, ts[i].ID
	}
	d, err := core.FromTuples(ts)
	if err != nil {
		panic(err)
	}
	return d
}

func checkCounts(t *testing.T, name string, d *core.Dataset) {
	t.Helper()
	got, err := d.DominatorCounts(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := bruteDominators(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: counts\n got %v\nwant %v", name, got, want)
	}
}

// TestDominatorCountsMatchBruteForce compares the index with the pairwise
// AlwaysOutranks count on tie-heavy tiny sets at d = 2…5, one-attribute
// sets, and the five generators at n ≤ 2000, which between them reach the
// divide and conquer, its pairwise base case and the pairwise fallback.
func TestDominatorCountsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, 200)
		rng.Read(buf)
		checkCounts(t, fmt.Sprintf("tiny trial %d", trial), tieHeavyDataset(buf))
	}
	checkCounts(t, "one attribute", core.MustNewDataset([][]float64{{0.5}, {1}, {0.5}, {0}, {1}}))
	for _, kind := range []string{"dot", "bn", "independent", "correlated", "anticorrelated"} {
		for _, dims := range []int{2, 3, 4, 5} {
			n := 2000
			if dims != 3 {
				n = 700
			}
			tb, err := dataset.ByKind(kind, n, dims, 7)
			if err != nil {
				t.Fatal(err)
			}
			d, err := tb.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			checkCounts(t, fmt.Sprintf("%s d=%d n=%d", kind, dims, n), d)
		}
	}
}

// FuzzDominators checks the index against the pairwise count on the
// inputs of TestDominatorCountsMatchBruteForce's tiny sets.
func FuzzDominators(f *testing.F) {
	f.Add([]byte{1, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 9, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCounts(t, "fuzz", tieHeavyDataset(data))
	})
}

// cancelAfter is a context whose Err reports cancellation from its
// (limit+1)-th call on: it cancels a build at each of its checks in turn.
type cancelAfter struct {
	context.Context
	calls, limit int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// A build canceled at any of its context checks returns the error and
// publishes nothing; the next call builds the correct counts.
func TestDominatorCountsCancel(t *testing.T) {
	for _, dims := range []int{3, 4, 7} {
		tb, err := dataset.ByKind("independent", 300, dims, 3)
		if err != nil {
			t.Fatal(err)
		}
		d, err := tb.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		for limit := 0; ; limit++ {
			_, err := d.DominatorCounts(&cancelAfter{Context: context.Background(), limit: limit})
			if err == nil {
				if limit < 2 {
					t.Fatalf("d=%d: build made only %d context checks", dims, limit)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("d=%d limit %d: error %v, want context.Canceled", dims, limit, err)
			}
			if d.HasDominatorCounts() {
				t.Fatalf("d=%d limit %d: a canceled build published its counts", dims, limit)
			}
			if _, _, err := d.KSkyband(&cancelAfter{Context: context.Background(), limit: limit}, 5); err == nil {
				t.Fatalf("d=%d limit %d: KSkyband succeeded on a canceled build", dims, limit)
			}
		}
		checkCounts(t, fmt.Sprintf("after cancellations d=%d", dims), d)
	}
}

// TestDominatorsConcurrentFirstUse has eight goroutines sample k-sets and
// build revalidation pools at different k on one fresh dataset, racing to
// build its index and its band slot; every result must equal the same
// call on a dataset used by one goroutine.
func TestDominatorsConcurrentFirstUse(t *testing.T) {
	tb := dataset.BNLike(1500, 5)
	fresh := func() *core.Dataset {
		t.Helper()
		p, err := tb.FirstDims(3)
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ctx := context.Background()
	opt := kset.SampleOptions{Termination: 60, Seed: 4}
	run := func(d *core.Dataset, i int) ([]int, error) {
		k := 3 + 4*i
		if i%2 == 0 {
			col, _, err := kset.Sample(ctx, d, k, opt)
			if err != nil {
				return nil, err
			}
			return col.Universe(), nil
		}
		pool, err := delta.BuildPool(ctx, d, k)
		if err != nil {
			return nil, err
		}
		return pool.IDs, nil
	}
	want := make([][]int, 8)
	for i := range want {
		var err error
		if want[i], err = run(fresh(), i); err != nil {
			t.Fatal(err)
		}
	}
	oracle := fresh()
	pl, err := shard.NewPlan(oracle, 1, shard.Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i += 2 {
		ids, _, err := shard.Candidates(ctx, pl, 3+4*i, shard.Dominance, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[i], ids) {
			t.Fatalf("pool at k=%d differs from the dominance scan", 3+4*i)
		}
	}
	d := fresh()
	got := make([][]int, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(d, i)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("goroutine %d (k=%d) differs from its single-goroutine run", i, 3+4*i)
		}
	}
}
