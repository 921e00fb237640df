package harness_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrr/internal/harness"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/smoke_figures.golden from the current code")

// smokeResults caches each figure's smoke-scale run, so the tests that
// read the same figure share one run of it.
var smokeResults = map[string]*harness.Result{}

// smokeRun returns f's result at smoke scale, running it on first use.
func smokeRun(t *testing.T, f harness.Figure) *harness.Result {
	t.Helper()
	if res, ok := smokeResults[f.ID]; ok {
		return res
	}
	res, err := f.Run(context.Background(), harness.ScaleSmoke)
	if err != nil {
		t.Fatalf("%s: %v", f.ID, err)
	}
	smokeResults[f.ID] = res
	return res
}

// withoutSeconds drops the seconds column, the fifth, from every line of
// a Result's CSV: the only column that varies from run to run.
func withoutSeconds(csv string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(csv, "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		b.WriteString(strings.Join(append(fields[:4:4], fields[5:]...), ","))
	}
	return b.String()
}

// TestSmokeFiguresGolden pins every figure and extension at smoke scale:
// each CSV line without its seconds column, so every size, rank-regret,
// k and extra value (k-set, node, draw and query counts, bounds, regret
// ratios). A change that only makes a kernel cheaper must leave the file
// byte for byte; -update rewrites it.
func TestSmokeFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments are slow; run without -short")
	}
	var b strings.Builder
	for _, f := range append(harness.Figures(), harness.Extensions()...) {
		b.WriteString(withoutSeconds(smokeRun(t, f).CSV()))
	}
	got := b.String()
	path := filepath.Join("testdata", "smoke_figures.golden")
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
