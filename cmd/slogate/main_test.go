package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeArgs shrinks the mixes so the suite stays fast; the gate logic
// under test is identical at any scale.
func smokeArgs(dir string, extra ...string) []string {
	args := []string{
		"-rows", "500", "-cold", "5", "-warm", "20",
		"-result", filepath.Join(dir, "slo.json"),
		"-baseline", filepath.Join(dir, "baseline.json"),
	}
	return append(args, extra...)
}

func TestFirstRunSeedsBaselineAndPasses(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if code := run(smokeArgs(dir), &out); code != 0 {
		t.Fatalf("first run: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "first run") {
		t.Errorf("missing first-run notice:\n%s", out.String())
	}

	data, err := os.ReadFile(filepath.Join(dir, "slo.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r sloResult
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.Cold.Requests != 5 || r.Warm.Requests != 20 {
		t.Errorf("result request counts: cold=%d warm=%d", r.Cold.Requests, r.Warm.Requests)
	}
	if r.Cold.P99NS <= 0 || r.Warm.P99NS <= 0 {
		t.Errorf("non-positive p99: cold=%d warm=%d", r.Cold.P99NS, r.Warm.P99NS)
	}
	if r.Cold.P50NS > r.Cold.P99NS || r.Warm.P50NS > r.Warm.P99NS {
		t.Errorf("p50 above p99: %+v", r)
	}
}

// TestInjectedRegressionFailsGate is the self-test the CI job repeats:
// seed a baseline, then re-run with an injected delay large enough to
// clear both the factor and the noise floor, and require exit 1.
func TestInjectedRegressionFailsGate(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if code := run(smokeArgs(dir), &out); code != 0 {
		t.Fatalf("seeding run: exit %d\n%s", code, out.String())
	}
	if err := os.Rename(filepath.Join(dir, "slo.json"), filepath.Join(dir, "baseline.json")); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	code := run(smokeArgs(dir, "-inject", "30ms", "-noise-floor", "10ms"), &out)
	if code != 1 {
		t.Fatalf("injected run: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed vs baseline") {
		t.Errorf("missing regression verdict:\n%s", out.String())
	}
}

func TestCleanRerunAgainstOwnBaselinePasses(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if code := run(smokeArgs(dir), &out); code != 0 {
		t.Fatalf("seeding run: exit %d\n%s", code, out.String())
	}
	if err := os.Rename(filepath.Join(dir, "slo.json"), filepath.Join(dir, "baseline.json")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run(smokeArgs(dir), &out); code != 0 {
		t.Fatalf("rerun vs own baseline: exit %d\n%s", code, out.String())
	}
}

func TestAbsoluteBudgetViolationFails(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	// 5ms injected delay with a 1ms warm budget must break the absolute
	// gate even with no baseline to compare against.
	code := run(smokeArgs(dir, "-inject", "5ms", "-warm-budget", "1ms"), &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "exceeds the absolute budget") {
		t.Errorf("missing budget verdict:\n%s", out.String())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := percentile(samples, 50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(samples, 99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := percentile(samples[:1], 99); got != time.Millisecond {
		t.Errorf("p99 of singleton = %v", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of empty = %v", got)
	}
}

func TestCorruptBaselineIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "baseline.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run(smokeArgs(dir), &out); code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, out.String())
	}
}

// TestOldBaselineShardsFieldIgnored: baselines written while slogate
// still measured a sharded solve carry a "shards" field; they must keep
// parsing so the first run after the change gates against them.
func TestOldBaselineShardsFieldIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	old := `{"dataset_rows": 4000, "shards": 4, "cold": {"requests": 40, "p99_ns": 13000000}, "warm": {"requests": 400, "p99_ns": 5000}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.N != 4000 || base.Cold.P99NS != 13000000 || base.Warm.P99NS != 5000 {
		t.Fatalf("baseline parsed as %+v", base)
	}
}
