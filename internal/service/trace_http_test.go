package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rrr/internal/trace"
	"rrr/internal/wal"
)

const testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// TestTracedSolve is the tracing acceptance test: a solve driven with a
// W3C traceparent header must yield a retrievable trace whose solver and
// cache spans nest under the root, inside the root's time window, and
// feed the phase histograms.
func TestTracedSolve(t *testing.T) {
	svc := New(Config{Seed: 1})
	if _, err := svc.Registry().Generate("flights", "dot", 400, 2, 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	req, err := http.NewRequest("GET", ts.URL+"/v1/representative?dataset=flights&k=10", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("representative status = %d", resp.StatusCode)
	}

	traceID := resp.Header.Get("X-Trace-Id")
	if traceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("X-Trace-Id = %q, want the ingested trace ID", traceID)
	}
	tp := resp.Header.Get("Traceparent")
	id, _, flags, ok := trace.ParseTraceparent(tp)
	if !ok || id.String() != traceID || flags&0x01 == 0 {
		t.Fatalf("response traceparent %q does not propagate trace %s sampled", tp, traceID)
	}

	var body traceBody
	if code := getJSON(t, ts.URL+"/v1/traces/"+traceID, &body); code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s status = %d", traceID, code)
	}
	if body.ID != traceID {
		t.Fatalf("trace ID = %q", body.ID)
	}
	if body.RemoteParent != "00f067aa0ba902b7" {
		t.Fatalf("remote parent = %q", body.RemoteParent)
	}

	byName := map[string][]traceSpanBody{}
	for _, sp := range body.SpanList {
		byName[sp.Name] = append(byName[sp.Name], sp)
		if sp.Open {
			t.Errorf("span %s[%d] still open in a finished trace", sp.Name, sp.ID)
		}
	}
	if n := len(byName["request"]); n != 1 {
		t.Fatalf("got %d root spans, want 1", n)
	}
	root := byName["request"][0]
	if root.Parent != int(trace.NoSpan) {
		t.Fatalf("root has parent %d", root.Parent)
	}

	// The solver's sweep and the cache wait, exactly once each.
	for _, name := range []string{"sweep", "cache_wait"} {
		if n := len(byName[name]); n != 1 {
			t.Fatalf("got %d %q spans, want 1:\n%s", n, name, body.Tree)
		}
	}
	if byName["cache_wait"][0].Parent != root.ID {
		t.Errorf("cache_wait not under the root")
	}
	// The solver span runs on the detached compute context, parented at
	// the span the request carried when the flight was created — the root.
	if p := byName["sweep"][0].Parent; p != root.ID {
		t.Errorf("sweep parented to span %d, want the root", p)
	}

	// Every child fits inside the root's window.
	rootEnd := root.StartUS + root.DurationUS
	for _, sp := range body.SpanList[1:] {
		if sp.StartUS < root.StartUS-1 || sp.StartUS+sp.DurationUS > rootEnd+1 {
			t.Errorf("span %s [%f, %f]us escapes the root window [%f, %f]us",
				sp.Name, sp.StartUS, sp.StartUS+sp.DurationUS, root.StartUS, rootEnd)
		}
	}

	// The same instrumentation fed the phase histograms.
	snap := svc.Metrics().Snapshot()
	for _, phase := range []string{"request", "sweep", "cache_wait"} {
		if snap.Phases[phase].Count == 0 {
			t.Errorf("phase histogram %q empty; phases: %v", phase, snap.Phases)
		}
	}
}

// TestTracesListingAndLocalTrace: an uncached solve without a traceparent
// header gets a locally-rooted trace, retrievable through the listing.
func TestTracesListingAndLocalTrace(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/representative?dataset=flights&k=15")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("uncached solve did not mint a local trace")
	}

	var listing struct {
		Total  int                `json:"total"`
		Traces []traceSummaryBody `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces", &listing); code != http.StatusOK {
		t.Fatalf("GET /v1/traces status = %d", code)
	}
	if listing.Total < 1 || len(listing.Traces) < 1 {
		t.Fatalf("listing = %+v", listing)
	}
	if listing.Traces[0].ID != traceID {
		t.Fatalf("newest trace = %s, want %s", listing.Traces[0].ID, traceID)
	}
	if listing.Traces[0].DurationMS <= 0 {
		t.Fatal("trace has no duration")
	}

	// A warm hit must NOT mint a trace (the zero-alloc fast path).
	resp, err = http.Get(ts.URL + "/v1/representative?dataset=flights&k=15")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("cached hit minted trace %s", got)
	}

	if code := getJSON(t, ts.URL+"/v1/traces/ffffffffffffffffffffffffffffffff", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", code)
	}
}

// TestSlowRequestLogDumpsTree: a request over the slow threshold logs its
// span tree; under-threshold requests stay quiet.
func TestSlowRequestLogDumpsTree(t *testing.T) {
	svc := New(Config{Seed: 1})
	if _, err := svc.Registry().Generate("d", "dot", 200, 2, 1); err != nil {
		t.Fatal(err)
	}
	var buf syncBuilder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	srv := NewServer(svc, WithSlowRequestLog(time.Nanosecond, logger))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/representative?dataset=d&k=5", nil)
	req.Header.Set("traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	out := buf.String()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, "request") {
		t.Fatalf("slow log missing dump: %q", out)
	}
	if !strings.Contains(out, "4bf92f3577b34da6a3ce929d0e0e4736") {
		t.Fatalf("slow log missing trace ID: %q", out)
	}

	// High threshold: nothing logged.
	buf.Reset()
	srv2 := NewServer(svc, WithSlowRequestLog(time.Hour, logger))
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	req2, _ := http.NewRequest("GET", ts2.URL+"/v1/representative?dataset=d&k=6", nil)
	req2.Header.Set("traceparent", testTraceparent)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if buf.Len() != 0 {
		t.Fatalf("under-threshold request logged: %q", buf.String())
	}
}

// TestInvalidTraceparentIgnored: malformed headers must not mint traces
// or propagate headers.
func TestInvalidTraceparentIgnored(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set("traceparent", "00-gggggggggggggggggggggggggggggggg-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Traceparent"); got != "" {
		t.Fatalf("invalid traceparent echoed as %q", got)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("invalid traceparent minted trace %q", got)
	}
}

// TestTracedMutationWALAppend: with the WAL attached, a traced mutation
// records a wal_append span.
func TestTracedMutationWALAppend(t *testing.T) {
	st, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := New(Config{Seed: 1, DeltaMaintenance: true})
	svc.AttachStore(st)
	if _, err := svc.Registry().Generate("d", "dot", 100, 2, 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/datasets/d/append",
		strings.NewReader(`{"rows":[[0.5,0.5]]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", testTraceparent)
	resp, err2 := http.DefaultClient.Do(req)
	if err2 != nil {
		t.Fatal(err2)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d", resp.StatusCode)
	}

	var body traceBody
	if code := getJSON(t, ts.URL+"/v1/traces/4bf92f3577b34da6a3ce929d0e0e4736", &body); code != http.StatusOK {
		t.Fatalf("trace fetch status = %d", code)
	}
	found := false
	for _, sp := range body.SpanList {
		if sp.Name == "wal_append" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no wal_append span in traced mutation:\n%s", body.Tree)
	}
}

// TestTracedMutationPoolSpan: a traced mutation over a cached 2-D answer
// records its revalidation pool's build as a reval_pool span, and no
// shard extraction (map_shard) spans.
func TestTracedMutationPoolSpan(t *testing.T) {
	svc := New(Config{Seed: 1, DeltaMaintenance: true})
	e, err := svc.Registry().Generate("d", "dot", 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/v1/representative?dataset=d&k=5", nil); code != http.StatusOK {
		t.Fatalf("representative status = %d", code)
	}

	// A copy of an existing row keeps the normalization bounds, so the
	// cached answer is classified against a pool instead of recomputed
	// outright.
	row := e.Table.Rows[0]
	req, _ := http.NewRequest("POST", ts.URL+"/v1/datasets/d/append",
		strings.NewReader(fmt.Sprintf(`{"rows":[[%v,%v]]}`, row[0], row[1])))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d", resp.StatusCode)
	}

	var body traceBody
	if code := getJSON(t, ts.URL+"/v1/traces/4bf92f3577b34da6a3ce929d0e0e4736", &body); code != http.StatusOK {
		t.Fatalf("trace fetch status = %d", code)
	}
	pools := 0
	for _, sp := range body.SpanList {
		switch sp.Name {
		case "reval_pool":
			pools++
		case "map_shard":
			t.Fatalf("pool build recorded a shard extraction:\n%s", body.Tree)
		}
	}
	if pools != 1 {
		t.Fatalf("%d reval_pool spans in traced mutation, want 1:\n%s", pools, body.Tree)
	}
}

// syncBuilder is a mutex-guarded strings.Builder: the slow-request log
// writes from the handler goroutine while the test reads after the
// response, and the race detector must see that ordered.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuilder) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Len()
}

func (s *syncBuilder) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b.Reset()
}
