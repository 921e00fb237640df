package topk_test

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rrr/internal/core"
	"rrr/internal/geom"
	"rrr/internal/topk"
)

// checkTopK is the kernel oracle: for every k, TopK and TopKScratch (on
// one reused arena) must return the first k IDs of Ranking, the unpruned
// sort of every tuple.
func checkTopK(t *testing.T, d *core.Dataset, f core.LinearFunc) {
	t.Helper()
	full := topk.Ranking(d, f)
	var sc topk.Scratch
	for k := 1; k <= d.N()+1; k++ {
		want := full[:min(k, d.N())]
		if got := topk.TopK(d, f, k); !slices.Equal(got, want) {
			t.Fatalf("TopK k=%d under %v = %v, want %v\n%v", k, f.W, got, want, d.Tuples())
		}
		if got := topk.TopKScratch(d, f, k, &sc); !slices.Equal(got, want) {
			t.Fatalf("TopKScratch k=%d under %v = %v, want %v\n%v", k, f.W, got, want, d.Tuples())
		}
	}
}

// gridWeights are the weight coordinates the oracle inputs draw from:
// exact zeros, cos(π/2) ≈ 6.1e-17 (what MDRC's corners on a θ_i = π/2
// face carry), and the values a tuple on the grid can have, so a tuple
// can be exactly parallel to w.
var gridWeights = []float64{0, math.Cos(math.Pi / 2), 0.2, 0.4, 0.6, 0.8, 1, math.Sqrt(0.5)}

// oracleInput decodes fuzz bytes into a dataset of at most 12 tuples and
// a weight vector with 2–4 coordinates.
//
// mode bit 0 picks the weights: per-coordinate from gridWeights, or an
// MDRC corner AnglesToWeight(θ) with every θ_i a multiple of π/8. Each
// tuple takes dims bytes: with the first byte's top bit set the tuple is
// c·w for c on the grid {0, 0.2, …, 1} (parallel to w, or a zero row);
// otherwise its coordinates are on the grid. mode bits 1–7 permute the
// IDs, so that a tie's smaller ID can come later in the scan order.
func oracleInput(dimsByte, mode uint8, wraw, raw []byte) (*core.Dataset, core.LinearFunc) {
	dims := 2 + int(dimsByte)%3
	byteAt := func(b []byte, i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 0
	}
	var w []float64
	if mode&1 == 0 {
		w = make([]float64, dims)
		for i := range w {
			w[i] = gridWeights[int(byteAt(wraw, i))%len(gridWeights)]
		}
	} else {
		theta := make([]float64, dims-1)
		for i := range theta {
			theta[i] = float64(byteAt(wraw, i)%5) * math.Pi / 8
		}
		w = geom.AnglesToWeight(theta)
	}
	n := min(len(raw)/dims, 12)
	if n == 0 {
		n = 1
	}
	step, shift := 1, int(mode>>2)
	if mode&2 != 0 {
		step = n - 1 // reversed, coprime with n
	}
	ts := make([]core.Tuple, n)
	for i := range ts {
		b := raw[min(i*dims, len(raw)):]
		attrs := make([]float64, dims)
		if byteAt(b, 0)&0x80 != 0 {
			c := float64(byteAt(b, 1)%6) / 5
			for j := range attrs {
				attrs[j] = c * w[j]
			}
		} else {
			for j := range attrs {
				attrs[j] = float64(byteAt(b, j)%6) / 5
			}
		}
		ts[i] = core.Tuple{ID: (i*step + shift) % n, Attrs: attrs}
	}
	d, err := core.FromTuples(ts)
	if err != nil {
		panic(err)
	}
	return d, core.LinearFunc{W: w}
}

// TestTopKOracle runs the oracle on hand-picked ties and on random
// decodes of oracleInput's byte format.
func TestTopKOracle(t *testing.T) {
	cases := []struct {
		name string
		ts   []core.Tuple
		w    []float64
	}{
		// The root scores 0 at the first zero row; a zero row with a
		// smaller ID ties it and must still enter: the early exit's
		// comparison has to be strict.
		{"zero-row tie", []core.Tuple{{ID: 1, Attrs: []float64{1, 0}}, {ID: 0, Attrs: []float64{0, 0}}}, []float64{0, 1}},
		// Two copies of w: the later-scanned copy has the smaller ID and
		// ties the root's score, 1.3599999999999999, which lies above the
		// computed ‖w‖·‖t‖ = 1.3599999999999997. Only the slack δ keeps
		// the scan going.
		{"parallel duplicate", []core.Tuple{{ID: 1, Attrs: []float64{0.6, 1}}, {ID: 0, Attrs: []float64{0.6, 1}}}, []float64{0.6, 1}},
		{"cos(pi/2) weight", []core.Tuple{{ID: 2, Attrs: []float64{1, 0, 0}}, {ID: 0, Attrs: []float64{0, 0, 0}}, {ID: 1, Attrs: []float64{1, 0, 0}}},
			geom.AnglesToWeight([]float64{math.Pi / 2, 0})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := core.FromTuples(c.ts)
			if err != nil {
				t.Fatal(err)
			}
			checkTopK(t, d, core.LinearFunc{W: c.w})
		})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		wraw := make([]byte, 3)
		raw := make([]byte, rng.Intn(49))
		rng.Read(wraw)
		rng.Read(raw)
		d, f := oracleInput(uint8(rng.Intn(256)), uint8(rng.Intn(256)), wraw, raw)
		checkTopK(t, d, f)
	}
}

func FuzzTopK(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{2, 3}, []byte{1, 0, 0x80, 2, 0x80, 2, 0, 0})
	f.Add(uint8(1), uint8(3), []byte{4, 2}, []byte{0x80, 5, 1, 2, 3, 0x80, 0, 0, 5, 5, 5, 6, 0, 0})
	f.Add(uint8(2), uint8(6), []byte{1, 1, 7}, []byte{0x80, 3, 0, 0, 0x80, 3, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dims, mode uint8, wraw, raw []byte) {
		d, w := oracleInput(dims, mode, wraw, raw)
		checkTopK(t, d, w)
	})
}

// TestTopKConcurrentFirstQuery has 8 goroutines ask a fresh dataset their
// first top-k queries at once, so they race to build its scan order; run
// it under -race.
func TestTopKConcurrentFirstQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points := make([][]float64, 500)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	d := core.MustNewDataset(points)
	funcs := make([]core.LinearFunc, 8)
	want := make([][]int, len(funcs))
	for i := range funcs {
		funcs[i] = geom.RandomFunc(3, rng)
		want[i] = topk.Ranking(d, funcs[i])[:20]
	}
	var wg sync.WaitGroup
	for i := range funcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := topk.TopK(d, funcs[i], 20); !slices.Equal(got, want[i]) {
				t.Errorf("goroutine %d: TopK = %v, want %v", i, got, want[i])
			}
		}()
	}
	wg.Wait()
}
