package service

import (
	"context"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rrr/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current code")

// driveEveryCounter moves each counter through its recorder so that no
// two counters end at the same value: a counter wired to the wrong
// family, leaf or help line then shows up as a changed number, not as a
// coincidence of zeros.
func driveEveryCounter(m *Metrics) {
	repeat := func(n int, f func()) {
		for i := 0; i < n; i++ {
			f()
		}
	}
	m.add(cacheHits, 2)
	m.add(cacheMisses, 3)
	m.add(inFlight, 4)
	repeat(5, func() { m.failed(errors.New("solver failed")) })
	repeat(6, func() { m.failed(context.Canceled) })
	m.add(batches, 7)
	m.add(batchItems, 77)
	m.add(coalescedJoins, 8)
	repeat(9, func() { m.shardSolve(12, 13, 100) })
	m.add(deltaMutations, 10)
	m.add(deltaMutatedTuples, 140)
	m.add(deltaRevalidated, 15)
	m.add(deltaRepaired, 16)
	m.add(deltaRecomputed, 17)
	m.add(walAppends, 19)
	m.add(walBytes, 342)
	m.add(replayedBatches, 20)
	m.add(warmedAnswers, 21)
	m.WatchSubscribers(22)
	m.WatchEvents(23)
	repeat(24, m.WatchDropped)
	repeat(25, m.WatchResumed)
	m.add(traceSampled, 26)
	m.add(traceUnsampled, 27)
	m.ExportedSpans(28)
	m.ExportBatches(29)
	m.ExportRetries(30)
	m.ExportFailures(31)
	m.ExportDroppedTraces(32)
}

// goldenMasks blank the values that depend on the clock or the runtime:
// uptime, the runtime gauges and exemplar timestamps.
var goldenMasks = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`(?m)^(rrrd_(?:uptime_seconds|goroutines|heap_alloc_bytes|gc_pause_seconds_total)) .*$`), "$1 <masked>"},
	{regexp.MustCompile(`("(?:uptime_seconds|goroutines|heap_alloc_bytes|gc_pause_seconds_total)": )[-0-9.eE+]+`), `$1"<masked>"`},
	{regexp.MustCompile(`(?m)( # \{trace_id="[0-9a-f]{32}"\} [^ ]+) [0-9.]+$`), "$1 <ts>"},
}

// TestMetricsGolden pins every byte the three metric surfaces emit —
// /v1/metrics, its OpenMetrics form and /v1/stats — for one state in
// which every counter, one latency histogram and one phase histogram
// hold distinct values. It catches what the drift test cannot: HELP
// text, family order and OpenMetrics metadata names. Run with -update
// to rewrite testdata/metrics.golden after an intended change.
func TestMetricsGolden(t *testing.T) {
	svc := New(Config{Seed: 1})
	srv := NewServer(svc)
	m := svc.Metrics()
	driveEveryCounter(m)
	tid, _, _, ok := trace.ParseTraceparent(testTraceparent)
	if !ok {
		t.Fatal("bad test traceparent")
	}
	m.solved("mdrc", 3*time.Millisecond, tid)
	m.PhaseObserve("sweep", 40*time.Millisecond, tid)

	var got strings.Builder
	for _, path := range []string{"/v1/metrics", "/v1/metrics?format=openmetrics", "/v1/stats"} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", path, nil).WithContext(context.Background()))
		body := w.Body.String()
		for _, mask := range goldenMasks {
			body = mask.re.ReplaceAllString(body, mask.repl)
		}
		got.WriteString("== GET " + path + " " + w.Result().Status + " " + w.Header().Get("Content-Type") + "\n")
		got.WriteString(body)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("metric surfaces differ from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
			}
		}
	}
}
