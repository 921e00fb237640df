package kset_test

import (
	"context"
	"testing"

	"rrr/internal/core"
	"rrr/internal/kset"
)

// FuzzSample checks the one K-SETr draw loop against replay on tie-heavy
// inputs: up to 16 points in d = 3 on the grid {0, ⅓, ⅔, 1} (one byte per
// point, two bits per attribute, as gridDataset draws them), two k values
// in [1, n], termination 1–60, a hard or soft draw budget of 1–400, and
// the dominator index prebuilt or built mid-run. Sample and each
// SampleMulti item must return replay's sets in order, its stats and its
// error text.
func FuzzSample(f *testing.F) {
	f.Add([]byte{0x3f, 0x15, 0x2a, 0x00, 0x39, 0x0e}, uint8(1), uint8(3), uint8(5), uint16(40), false, false, int64(1))
	f.Add([]byte{0x3f, 0x3f, 0x3f, 0x15, 0x15, 0x2a, 0x2a, 0x00}, uint8(2), uint8(2), uint8(59), uint16(399), true, true, int64(2))
	f.Add([]byte{0x24, 0x09, 0x12, 0x21, 0x18, 0x06, 0x33, 0x0c, 0x30, 0x03, 0x3c, 0x0f, 0x01, 0x10, 0x04, 0x2d}, uint8(11), uint8(4), uint8(30), uint16(60), true, false, int64(3))
	f.Add([]byte{0x15}, uint8(0), uint8(0), uint8(0), uint16(0), false, true, int64(4))
	f.Fuzz(func(t *testing.T, raw []byte, k1, k2, term uint8, maxDraws uint16, hard, prebuild bool, seed int64) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		points := make([][]float64, len(raw))
		for i, b := range raw {
			points[i] = []float64{float64(b&3) / 3, float64(b>>2&3) / 3, float64(b>>4&3) / 3}
		}
		n := len(points)
		ks := []int{1 + int(k1)%n, 1 + int(k2)%n}
		opt := kset.SampleOptions{
			Termination:  1 + int(term)%60,
			MaxDraws:     1 + int(maxDraws)%400,
			HardMaxDraws: hard,
			Seed:         seed,
		}
		fresh := func() *core.Dataset {
			d := core.MustNewDataset(points)
			if prebuild {
				if _, err := d.DominatorCounts(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			return d
		}
		want := []replayRun{replay(fresh(), ks[0], opt), replay(fresh(), ks[1], opt)}
		for i, k := range ks {
			col, stats, err := kset.Sample(context.Background(), fresh(), k, opt)
			if e := sameRun(col, stats, err, want[i]); e != nil {
				t.Fatalf("Sample k=%d, %+v: %v", k, opt, e)
			}
		}
		cols, stats, errs := kset.SampleMulti(context.Background(), fresh(), ks, opt)
		for i, k := range ks {
			if e := sameRun(cols[i], stats[i], errs[i], want[i]); e != nil {
				t.Fatalf("SampleMulti ks=%v, k=%d, %+v: %v", ks, k, opt, e)
			}
		}
	})
}
