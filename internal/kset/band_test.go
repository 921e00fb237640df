package kset_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rrr/internal/core"
	"rrr/internal/geom"
	"rrr/internal/kset"
	"rrr/internal/topk"
)

// replayRun is Algorithm 4 over the full dataset, with no band and no
// early exit: Sample's seed stream and stopping rules, each draw's k-set
// taken as a prefix of topk.Ranking. It is the oracle Sample and
// SampleMulti must reproduce whether or when they move to the k-skyband.
type replayRun struct {
	sets  [][]int
	stats kset.SampleStats
	err   error
}

func replay(d *core.Dataset, k int, opt kset.SampleOptions) replayRun {
	term, maxDraws := opt.Termination, opt.MaxDraws
	if term <= 0 {
		term = 100
	}
	if maxDraws <= 0 {
		maxDraws = 2_000_000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	w := make([]float64, d.Dims())
	var r replayRun
	seen := map[string]bool{}
	for counter := 0; counter <= term; {
		if r.stats.Draws >= maxDraws {
			r.stats.Truncated = true
			if opt.HardMaxDraws {
				r.err = fmt.Errorf("%w after %d draws (%d k-sets found)", kset.ErrDrawBudget, r.stats.Draws, len(r.sets))
			}
			break
		}
		geom.RandomWeightInto(w, rng)
		r.stats.Draws++
		set := append([]int(nil), topk.Ranking(d, core.LinearFunc{W: w})[:k]...)
		sort.Ints(set)
		if key := fmt.Sprint(set); !seen[key] {
			seen[key] = true
			r.sets = append(r.sets, set)
			counter = 0
		} else {
			counter++
		}
	}
	r.stats.Distinct = len(r.sets)
	return r
}

func sameRun(got *kset.Collection, stats kset.SampleStats, err error, want replayRun) error {
	if fmt.Sprint(err) != fmt.Sprint(want.err) || errors.Is(err, kset.ErrDrawBudget) != errors.Is(want.err, kset.ErrDrawBudget) {
		return fmt.Errorf("error %v, replay %v", err, want.err)
	}
	if stats != want.stats {
		return fmt.Errorf("stats %+v, replay %+v", stats, want.stats)
	}
	if !reflect.DeepEqual(got.Sets(), want.sets) && !(got.Len() == 0 && len(want.sets) == 0) {
		return fmt.Errorf("collections differ: %d sets, replay %d", got.Len(), len(want.sets))
	}
	return nil
}

// gridDataset has n tuples of 3 attributes on the grid {0, ⅓, ⅔, 1}:
// repeated rows and tied scores everywhere, so the ID tie-break decides
// both the dominator counts and the top-k.
func gridDataset(rng *rand.Rand, n int) *core.Dataset {
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{float64(rng.Intn(4)) / 3, float64(rng.Intn(4)) / 3, float64(rng.Intn(4)) / 3}
	}
	return core.MustNewDataset(points)
}

// exactBand has exactly k tuples with fewer than k dominators: k
// pairwise incomparable rows with the smallest IDs, and zero rows after
// them, which all k outrank everywhere.
func exactBand(k, n int) *core.Dataset {
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{0, 0, 0}
		if i < k {
			a := float64(i) / float64(k)
			points[i] = []float64{a, 1 - a, 0.5}
		}
	}
	return core.MustNewDataset(points)
}

// checkBand compares KSkyband's members with the pairwise count.
func checkBand(t *testing.T, name string, d *core.Dataset, k int) {
	t.Helper()
	order, _, err := d.KSkyband(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []int
	for _, i := range order {
		got = append(got, int(i))
	}
	for i, u := range d.Tuples() {
		dominators := 0
		for _, v := range d.Tuples() {
			if v.ID != u.ID && core.AlwaysOutranks(v, u) {
				dominators++
			}
		}
		if dominators < k {
			want = append(want, i)
		}
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d-skyband holds %v, want %v", name, k, got, want)
	}
}

// TestSampleOnBandMatchesFullReplay checks that K-SETr on the k-skyband
// returns the full-data run: the same collection in the same order, the
// same draws, truncation flag and ErrDrawBudget errors, for runs that
// never switch, switch mid-way, and start on a prebuilt index, on
// tie-heavy data, on a band of exactly k tuples, and at k = n.
func TestSampleOnBandMatchesFullReplay(t *testing.T) {
	type tc struct {
		name     string
		d        func() *core.Dataset
		ks       []int
		opt      kset.SampleOptions
		prebuild bool
		// switched is whether the run must end with the index built.
		switched bool
	}
	rng := rand.New(rand.NewSource(5))
	grid := gridDataset(rng, 150)
	gridCopy := func() *core.Dataset { return core.MustNewDataset(pointsOf(grid)) }
	cases := []tc{
		{name: "never switches", d: gridCopy, ks: []int{3, 7}, opt: kset.SampleOptions{Termination: 2, MaxDraws: 3, Seed: 1}},
		{name: "switches mid-way", d: gridCopy, ks: []int{7, 20}, opt: kset.SampleOptions{Termination: 150, Seed: 2}, switched: true},
		{name: "prebuilt index", d: gridCopy, ks: []int{3, 7, 20}, opt: kset.SampleOptions{Termination: 60, Seed: 3}, prebuild: true, switched: true},
		{name: "draw budget after the switch", d: gridCopy, ks: []int{5, 12}, opt: kset.SampleOptions{Termination: 1000, MaxDraws: 400, HardMaxDraws: true, Seed: 4}, switched: true},
		{name: "soft budget", d: gridCopy, ks: []int{5, 12}, opt: kset.SampleOptions{Termination: 1000, MaxDraws: 300, Seed: 6}, switched: true},
		{name: "band of exactly k", d: func() *core.Dataset { return exactBand(6, 400) }, ks: []int{6}, opt: kset.SampleOptions{Termination: 40, Seed: 7}, prebuild: true, switched: true},
		{name: "k = n", d: gridCopy, ks: []int{150}, opt: kset.SampleOptions{Termination: 5, Seed: 8}, prebuild: true, switched: true},
	}
	for _, c := range cases {
		for _, k := range c.ks {
			d := c.d()
			if c.prebuild {
				if _, err := d.DominatorCounts(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			want := replay(d, k, c.opt)
			col, stats, err := kset.Sample(context.Background(), d, k, c.opt)
			if e := sameRun(col, stats, err, want); e != nil {
				t.Fatalf("%s, Sample k=%d: %v", c.name, k, e)
			}
			if d.HasDominatorCounts() != c.switched {
				t.Fatalf("%s, Sample k=%d: index built = %v, want %v", c.name, k, d.HasDominatorCounts(), c.switched)
			}
			checkBand(t, c.name, d, k)
		}
		d := c.d()
		if c.prebuild {
			if _, err := d.DominatorCounts(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		cols, stats, errs := kset.SampleMulti(context.Background(), d, c.ks, c.opt)
		for i, k := range c.ks {
			if e := sameRun(cols[i], stats[i], errs[i], replay(d, k, c.opt)); e != nil {
				t.Fatalf("%s, SampleMulti k=%d: %v", c.name, k, e)
			}
		}
		if d.HasDominatorCounts() != c.switched {
			t.Fatalf("%s, SampleMulti: index built = %v, want %v", c.name, d.HasDominatorCounts(), c.switched)
		}
	}
}

func pointsOf(d *core.Dataset) [][]float64 {
	out := make([][]float64, d.N())
	for i, t := range d.Tuples() {
		out[i] = t.Attrs
	}
	return out
}
