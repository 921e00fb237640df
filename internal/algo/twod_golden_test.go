package algo_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrr"
	"rrr/internal/algo"
	"rrr/internal/sweep"
)

// twoDGoldenInputs are the 2-D solves whose answers and ranges are pinned
// byte for byte: the benchmark's cold 2-D data (DOT-like, n = 1000) and
// the five generators' 2-D projections at n = 2000, all seed 1.
var twoDGoldenInputs = []struct {
	kind string
	n    int
}{
	{"dot", 1000},
	{"dot", 2000},
	{"bn", 2000},
	{"independent", 2000},
	{"correlated", 2000},
	{"anticorrelated", 2000},
}

var twoDGoldenKs = []int{1, 10, 35, 82, 106, 178}

// rangesHash is an FNV-64 of Algorithm 1's ranges in the sweep's output
// order: each range's ID and the bits of its two angles.
func rangesHash(rs []sweep.Range) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.ID))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Lo))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.Hi))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestTwoDGoldenAnswers pins, per input and k, 2DRRR's IDs under both
// covers, the number of ranges and a hash of the ranges' exact bits, and
// per input the answers of one SolveBatch over every k (the
// sweep.FindRangesMulti path). Anything that only makes the sweep cheaper
// must leave every line unchanged; -update rewrites the file.
func TestTwoDGoldenAnswers(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder
	for _, in := range twoDGoldenInputs {
		d := goldenDataset(t, in.kind, in.n, 2)
		head := fmt.Sprintf("%s n=%d", in.kind, in.n)
		for _, k := range twoDGoldenKs {
			ranges, err := sweep.FindRangesScratch(ctx, d, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			gain, err := algo.TwoDRRR(ctx, d, k, algo.TwoDOptions{Cover: algo.CoverMaxGain})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := algo.TwoDRRR(ctx, d, k, algo.TwoDOptions{Cover: algo.CoverOptimalSweep})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s k=%d ranges=%d hash=%016x maxgain=%s optimal=%s\n",
				head, k, gain.Stats.Ranges, rangesHash(ranges), joinIDs(gain.IDs), joinIDs(opt.IDs))
		}
		reqs := make([]rrr.Request, len(twoDGoldenKs))
		for i, k := range twoDGoldenKs {
			reqs[i] = rrr.Request{K: k}
		}
		res, err := rrr.New().SolveBatch(ctx, d, reqs)
		if err != nil {
			t.Fatal(err)
		}
		answers := make([]string, len(res.Items))
		for i, it := range res.Items {
			if it.Err != nil {
				t.Fatal(it.Err)
			}
			answers[i] = joinIDs(it.Result.IDs)
		}
		fmt.Fprintf(&b, "%s batch sweeps=%d ids=%s\n", head, res.Stats.Sweeps, strings.Join(answers, "|"))
	}
	checkGolden(t, "twod_answers.golden", b.String())
}

// checkGolden compares got with testdata/name line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	lineAt := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<missing>"
	}
	for i := range max(len(gotLines), len(wantLines)) {
		if lineAt(gotLines, i) != lineAt(wantLines, i) {
			t.Errorf("%s line %d:\n got %s\nwant %s", path, i+1, lineAt(gotLines, i), lineAt(wantLines, i))
		}
	}
}
