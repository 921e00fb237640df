package harness_test

import (
	"strings"
	"testing"

	"rrr/internal/harness"
)

func TestParseScale(t *testing.T) {
	cases := map[string]harness.Scale{
		"smoke": harness.ScaleSmoke, "default": harness.ScaleDefault,
		"": harness.ScaleDefault, "paper": harness.ScalePaper, "PAPER": harness.ScalePaper,
	}
	for in, want := range cases {
		got, err := harness.ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := harness.ParseScale("bogus"); err == nil {
		t.Error("bogus scale must error")
	}
}

func TestFiguresCoverPaperEvaluation(t *testing.T) {
	figs := harness.Figures()
	if len(figs) != 20 {
		t.Fatalf("got %d figures, want 20 (Figures 9-28)", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.ID] {
			t.Fatalf("duplicate figure %s", f.ID)
		}
		seen[f.ID] = true
		if f.Run == nil || f.Title == "" {
			t.Fatalf("figure %s incomplete", f.ID)
		}
	}
	for i := 9; i <= 28; i++ {
		if _, ok := harness.ByID(strings.TrimPrefix("fig", "") + itoa(i)); !ok {
			t.Errorf("figure %d not found by ID", i)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestByIDNormalization(t *testing.T) {
	for _, id := range []string{"fig09", "FIG09", "9", "09", " fig9 "} {
		if f, ok := harness.ByID(id); !ok || f.ID != "fig09" {
			t.Errorf("ByID(%q) failed: %v %v", id, f.ID, ok)
		}
	}
	if _, ok := harness.ByID("fig99"); ok {
		t.Error("unknown figure must not resolve")
	}
}

func TestMakeDataset(t *testing.T) {
	d, err := harness.MakeDataset("dot", 100, 3)
	if err != nil || d.N() != 100 || d.Dims() != 3 {
		t.Fatalf("MakeDataset dot: %v", err)
	}
	d, err = harness.MakeDataset("bn", 50, 5)
	if err != nil || d.Dims() != 5 {
		t.Fatalf("MakeDataset bn: %v", err)
	}
	if _, err := harness.MakeDataset("bn", 50, 6); err == nil {
		t.Error("bn has only 5 attributes; d=6 must error")
	}
	if _, err := harness.MakeDataset("nope", 50, 2); err == nil {
		t.Error("unknown kind must error")
	}
}

func TestExtensionsResolvable(t *testing.T) {
	exts := harness.Extensions()
	if len(exts) != 7 {
		t.Fatalf("got %d extension figures, want 7", len(exts))
	}
	for _, f := range exts {
		got, ok := harness.ByID(f.ID)
		if !ok || got.ID != f.ID {
			t.Errorf("extension %s not resolvable by ID", f.ID)
		}
	}
}

// TestSmokeRunExtensions executes the extension/ablation experiments at
// smoke scale and checks their specific claims.
func TestSmokeRunExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments are slow; run without -short")
	}
	for _, f := range harness.Extensions() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			res := smokeRun(t, f)
			if len(res.Rows) == 0 {
				t.Fatalf("%s produced no rows", f.ID)
			}
			switch f.ID {
			case "ext01":
				// Skylines must order anti > ind > corr.
				sky := map[string]float64{}
				for _, row := range res.Rows {
					sky[row.X] = row.Extra["skyline"]
				}
				if !(sky["anticorrelated"] > sky["independent"] && sky["independent"] > sky["correlated"]) {
					t.Errorf("skyline ordering violated: %v", sky)
				}
			case "abl01":
				// Optimal cover never larger than max-gain.
				sizes := map[string]map[string]int{}
				for _, row := range res.Rows {
					if sizes[row.X] == nil {
						sizes[row.X] = map[string]int{}
					}
					sizes[row.X][row.Alg] = row.Size
				}
				for x, m := range sizes {
					if m["optimal"] > m["max-gain"] {
						t.Errorf("%s: optimal %d > max-gain %d", x, m["optimal"], m["max-gain"])
					}
				}
			case "abl04":
				// Memoized run must issue fewer top-k queries.
				var memoQ, rawQ float64
				for _, row := range res.Rows {
					if row.Alg == "memoized" {
						memoQ = row.Extra["topk_queries"]
					} else {
						rawQ = row.Extra["topk_queries"]
					}
				}
				if memoQ >= rawQ {
					t.Errorf("memoization did not reduce queries: %v vs %v", memoQ, rawQ)
				}
			case "abl05":
				// More patience discovers at least as many k-sets.
				var prev int
				for i, row := range res.Rows {
					if i > 0 && row.Size < prev {
						t.Errorf("k-sets decreased with larger c: %v", res.Rows)
					}
					prev = row.Size
				}
			}
		})
	}
}

// TestSmokeRunAllFigures executes every figure at smoke scale and checks
// structural invariants plus the paper's qualitative claims that survive
// even tiny inputs.
func TestSmokeRunAllFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments are slow; run without -short")
	}
	for _, f := range harness.Figures() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			res := smokeRun(t, f)
			if len(res.Rows) == 0 {
				t.Fatalf("%s produced no rows", f.ID)
			}
			for _, row := range res.Rows {
				if row.Seconds < 0 {
					t.Errorf("%s: negative time", f.ID)
				}
				if _, skipped := row.Extra["skipped"]; skipped {
					continue
				}
				if row.Size <= 0 {
					t.Errorf("%s: row %+v has no output", f.ID, row)
				}
			}
			tbl := res.Table()
			if !strings.Contains(tbl, f.ID) || !strings.Contains(tbl, "rank-regret") {
				t.Errorf("%s: table rendering broken:\n%s", f.ID, tbl)
			}
			csv := res.CSV()
			if !strings.HasPrefix(csv, "figure,x,algorithm") {
				t.Errorf("%s: csv rendering broken", f.ID)
			}
			if strings.Count(csv, "\n") != len(res.Rows)+1 {
				t.Errorf("%s: csv row count mismatch", f.ID)
			}
		})
	}
}

// TestGuaranteesAtSmokeScale: on the effectiveness figures, MDRRR must stay
// within k on 2-D (exact k-sets) and the k-set counts must stay below the
// theoretical upper bound.
func TestGuaranteesAtSmokeScale(t *testing.T) {
	f, _ := harness.ByID("fig10")
	res := smokeRun(t, f)
	for _, row := range res.Rows {
		if row.Alg == "MDRRR" && row.RankRegret > row.K {
			t.Errorf("MDRRR with exact 2-D k-sets exceeded k: %+v", row)
		}
		if row.Alg == "2DRRR" && row.RankRegret > 2*row.K {
			t.Errorf("2DRRR exceeded 2k: %+v", row)
		}
		if row.Alg == "MDRC" && row.RankRegret > 2*row.K {
			t.Errorf("MDRC exceeded dk: %+v", row)
		}
	}
	f, _ = harness.ByID("fig13")
	res = smokeRun(t, f)
	for _, row := range res.Rows {
		if bound := row.Extra["upper_bound"]; float64(row.Size) > bound {
			t.Errorf("k-set count %d above theoretical bound %g", row.Size, bound)
		}
	}
}
