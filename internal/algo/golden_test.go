package algo_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rrr/internal/algo"
	"rrr/internal/core"
	"rrr/internal/dataset"
	"rrr/internal/geom"
	"rrr/internal/kset"
	"rrr/internal/topk"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current code")

// goldenInputs are the d-D solves whose answers and work counters are
// pinned byte for byte: the benchmark's cold MDRC data (BN-like d = 4,
// n = 10,000, k ≈ 1%·n), its cold MDRRR data (BN-like d = 3, n = 2,000,
// small k), and its churn data (DOT-like d = 3, n = 2,000). MDRRR runs
// where its sampler stops within about 20,000 draws; on the churn data
// at k ≥ 100 it needs 40,000–150,000, too many for a unit test.
var goldenInputs = []struct {
	kind    string
	n, dims int
	ks      []int
	// mdrrrMaxK is the largest k MDRRR runs at.
	mdrrrMaxK int
}{
	{"bn", 10000, 4, []int{100, 148, 184}, 0},
	{"bn", 2000, 3, []int{6, 9, 13}, 13},
	{"dot", 2000, 3, []int{20, 50, 100, 200}, 50},
}

func goldenDataset(t *testing.T, kind string, n, dims int) *core.Dataset {
	t.Helper()
	tab, err := dataset.ByKind(kind, n, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tab.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func joinIDs(ids []int) string {
	s := make([]string, len(ids))
	for i, id := range ids {
		s[i] = fmt.Sprint(id)
	}
	return strings.Join(s, ",")
}

// TestDDGoldenAnswers pins the IDs and the recursion and sampling
// counters of MDRC (both pick rules) and MDRRR on the benchmark's d-D
// data. Anything that only makes a top-k query cheaper must leave every
// line unchanged; -update rewrites the file.
func TestDDGoldenAnswers(t *testing.T) {
	var b strings.Builder
	for _, in := range goldenInputs {
		d := goldenDataset(t, in.kind, in.n, in.dims)
		for _, k := range in.ks {
			head := fmt.Sprintf("%s n=%d d=%d k=%d", in.kind, in.n, in.dims, k)
			for _, pick := range []struct {
				name string
				p    algo.PickStrategy
			}{{"first", algo.PickFirst}, {"minmaxrank", algo.PickMinMaxRank}} {
				res, err := algo.MDRC(context.Background(), d, k, algo.MDRCOptions{Pick: pick.p})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s mdrc/%s nodes=%d maxdepth=%d fallbacks=%d ids=%s\n",
					head, pick.name, res.Stats.Nodes, res.Stats.MaxDepth, res.Stats.Fallbacks, joinIDs(res.IDs))
			}
			if k > in.mdrrrMaxK {
				continue
			}
			res, err := algo.MDRRR(context.Background(), d, k, algo.MDRRROptions{Sampler: kset.SampleOptions{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s mdrrr draws=%d ksets=%d ids=%s\n",
				head, res.Stats.SamplerDraws, res.Stats.KSets, joinIDs(res.IDs))
		}
	}
	path := filepath.Join("testdata", "dd_answers.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	lineAt := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<missing>"
	}
	for i := range max(len(got), len(wantLines)) {
		if lineAt(got, i) != lineAt(wantLines, i) {
			t.Errorf("%s line %d:\n got %s\nwant %s", path, i+1, lineAt(got, i), lineAt(wantLines, i))
		}
	}
}

// referenceMDRC replays Algorithm 5 the plain way: unmemoized-by-design
// corner answers from the full sort (topk.Ranking), and a map-based
// intersection. It returns the picked IDs, the nodes visited, and the
// number of distinct corner weight vectors the recursion met, which is
// what MDRC's TopKQueries must count.
func referenceMDRC(d *core.Dataset, k int, pick algo.PickStrategy, answers map[string][]int) ([]int, int, int) {
	var ids []int
	nodes := 0
	seen := map[string]bool{}
	var rec func(r geom.Rect, level int)
	rec = func(r geom.Rect, level int) {
		nodes++
		var lists [][]int
		for _, c := range r.Corners() {
			w := geom.AnglesToWeight(c)
			key := fmt.Sprint(w) // shortest round-trip form: distinct floats, distinct keys
			seen[key] = true
			if _, ok := answers[key]; !ok {
				answers[key] = topk.Ranking(d, core.LinearFunc{W: w})[:k]
			}
			lists = append(lists, answers[key])
		}
		count, worst := map[int]int{}, map[int]int{}
		for _, l := range lists {
			for rank, id := range l {
				count[id]++
				worst[id] = max(worst[id], rank)
			}
		}
		best := -1
		for _, id := range lists[0] {
			if count[id] != len(lists) {
				continue
			}
			if best < 0 || (pick == algo.PickMinMaxRank && (worst[id] < worst[best] || (worst[id] == worst[best] && id < best))) {
				best = id
			}
		}
		switch {
		case best >= 0:
			ids = append(ids, best)
		case r.MaxWidth() < 1e-6:
			ids = append(ids, topk.Ranking(d, geom.FuncFromAngles(r.Center()))[0])
		default:
			lo, hi := r.Split(level % r.Dim())
			rec(lo, level+1)
			rec(hi, level+1)
		}
	}
	rec(geom.FullAngleSpace(d.Dims()), 0)
	slices.Sort(ids)
	return slices.Compact(ids), nodes, len(seen)
}

// TestMDRCAgainstReference checks MDRC on the golden inputs against
// referenceMDRC: the same picks and nodes under both pick rules, one
// top-k scan per distinct corner function (TopKQueries), and every other
// corner visit a memo hit.
func TestMDRCAgainstReference(t *testing.T) {
	for _, in := range goldenInputs {
		d := goldenDataset(t, in.kind, in.n, in.dims)
		for _, k := range in.ks {
			answers := map[string][]int{}
			for _, pick := range []algo.PickStrategy{algo.PickFirst, algo.PickMinMaxRank} {
				res, err := algo.MDRC(context.Background(), d, k, algo.MDRCOptions{Pick: pick})
				if err != nil {
					t.Fatal(err)
				}
				ids, nodes, distinct := referenceMDRC(d, k, pick, answers)
				s := res.Stats
				if !slices.Equal(res.IDs, ids) || s.Nodes != nodes {
					t.Errorf("%s d=%d k=%d pick %d: ids %v nodes %d, reference %v nodes %d", in.kind, in.dims, k, pick, res.IDs, s.Nodes, ids, nodes)
				}
				if s.TopKQueries != distinct || s.TopKQueries+s.CacheHits != nodes<<(in.dims-1) {
					t.Errorf("%s d=%d k=%d pick %d: TopKQueries %d, CacheHits %d; want %d distinct functions over %d corner visits",
						in.kind, in.dims, k, pick, s.TopKQueries, s.CacheHits, distinct, nodes<<(in.dims-1))
				}
			}
		}
	}
}
