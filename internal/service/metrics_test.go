package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rrr/internal/dataset"
)

// registerGenerated registers a synthetic dataset on the service.
func registerGenerated(t *testing.T, svc *Service, name, kind string, n, d int) {
	t.Helper()
	table, err := dataset.ByKind(kind, n, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Registry().Register(name, table); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndpoint: /v1/metrics serves the Prometheus text exposition
// with the counters and the latency histogram series.
func TestMetricsEndpoint(t *testing.T) {
	svc := New(Config{Seed: 1})
	registerGenerated(t, svc, "uni", "independent", 300, 2)
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()

	if resp, err := srv.Client().Get(srv.URL + "/v1/representative?dataset=uni&k=10"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("representative: status %d", resp.StatusCode)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not the text exposition format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE rrrd_cache_misses_total counter",
		"rrrd_cache_misses_total 1",
		"# TYPE rrrd_solve_duration_seconds histogram",
		`rrrd_solve_duration_seconds_bucket{algorithm="2drrr",le="+Inf"} 1`,
		`rrrd_solve_duration_seconds_count{algorithm="2drrr"} 1`,
		"rrrd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	// The retired unversioned alias is not routed.
	resp2, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unversioned /metrics: status %d, want %d", resp2.StatusCode, http.StatusNotFound)
	}
}

// TestWatchCountersBothSurfaces pins the contract that every watch
// counter is visible in both observability surfaces: the JSON /v1/stats
// snapshot and the Prometheus /v1/metrics exposition. A counter added to
// one but not the other fails here.
func TestWatchCountersBothSurfaces(t *testing.T) {
	svc := New(Config{Seed: 1})
	m := svc.Metrics()
	m.WatchSubscribers(2)
	m.WatchSubscribers(-1)
	m.WatchEvents(3)
	m.WatchDropped()
	m.WatchResumed()

	snap := m.Snapshot()
	if snap.Watch.Subscribers != 1 || snap.Watch.Events != 3 || snap.Watch.Dropped != 1 || snap.Watch.Resumes != 1 {
		t.Fatalf("stats watch section = %+v, want {1 3 1 1}", snap.Watch)
	}

	var sb strings.Builder
	m.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"# TYPE rrrd_watch_subscribers gauge",
		"rrrd_watch_subscribers 1",
		"# TYPE rrrd_watch_events_total counter",
		"rrrd_watch_events_total 3",
		"# TYPE rrrd_watch_dropped_total counter",
		"rrrd_watch_dropped_total 1",
		"# TYPE rrrd_watch_resumes_total counter",
		"rrrd_watch_resumes_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}
