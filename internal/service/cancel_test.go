package service

// Tests for the context-aware serving layer: the cache's waiter-counted
// cancellation (a computation is detached from any one request but dies
// with its last waiter), the versioned /v1 surface, the per-request
// timeout, and the structured error bodies naming the typed error kind.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rrr"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// blockingCompute returns a compute function that signals when it starts
// and then blocks until its context dies, returning the context's error —
// a stand-in for a solver honoring cancellation.
func blockingCompute(started chan<- struct{}) func(context.Context) ([]int, ResultStats, error) {
	return func(ctx context.Context) ([]int, ResultStats, error) {
		close(started)
		<-ctx.Done()
		return nil, ResultStats{}, ctx.Err()
	}
}

// TestCacheLastWaiterCancels: when every request waiting on a flight has
// gone, the computation's context dies; the slot is evicted so the key
// stays retryable.
func TestCacheLastWaiterCancels(t *testing.T) {
	m := NewMetrics()
	c := NewCache(m, 0)
	key := Key{Dataset: "d", K: 1, Algo: "mdrc"}

	started := make(chan struct{})
	reqCtx, cancelReq := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Do(reqCtx, key, blockingCompute(started))
		errc <- err
	}()
	<-started
	if got := m.Snapshot().InFlight; got != 1 {
		t.Fatalf("in-flight = %d while computing, want 1", got)
	}

	cancelReq()
	err := <-errc
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter got err = %v, want context.Canceled in chain", err)
	}
	// The computation notices its dead context, finishes, and is evicted.
	waitFor(t, "computation to unwind", func() bool {
		return m.Snapshot().InFlight == 0 && c.Len() == 0
	})
	if got := m.Snapshot().Canceled; got != 1 {
		t.Fatalf("canceled computations = %d, want 1", got)
	}
	if got := m.Snapshot().Failures; got != 0 {
		t.Fatalf("failures = %d, want 0 (cancellation is not a failure)", got)
	}
}

// TestCacheSurvivingWaiterKeepsComputation: one waiter leaving must NOT
// cancel a flight other waiters still want.
func TestCacheSurvivingWaiterKeepsComputation(t *testing.T) {
	c := NewCache(nil, 0)
	key := Key{Dataset: "d", K: 2, Algo: "mdrc"}

	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context) ([]int, ResultStats, error) {
		close(started)
		select {
		case <-ctx.Done():
			return nil, ResultStats{}, ctx.Err()
		case <-release:
			return []int{42}, ResultStats{}, nil
		}
	}

	leaverCtx, cancelLeaver := context.WithCancel(context.Background())
	leaverErr := make(chan error, 1)
	go func() {
		_, err := c.Do(leaverCtx, key, compute)
		leaverErr <- err
	}()
	<-started

	stayerRes := make(chan CachedResult, 1)
	stayerErr := make(chan error, 1)
	go func() {
		res, err := c.Do(context.Background(), key, compute)
		stayerRes <- res
		stayerErr <- err
	}()
	// Let the stayer register as a waiter before the leaver abandons.
	waitFor(t, "second waiter to join", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.slots[key] != nil && c.slots[key].waiters == 2
	})

	cancelLeaver()
	if err := <-leaverErr; err == nil {
		t.Fatal("leaver got nil error")
	}
	// The computation must still be running for the stayer.
	close(release)
	if err := <-stayerErr; err != nil {
		t.Fatalf("stayer got error %v; the flight was canceled under it", err)
	}
	if res := <-stayerRes; len(res.IDs) != 1 || res.IDs[0] != 42 {
		t.Fatalf("stayer got IDs %v, want [42]", res.IDs)
	}
}

// TestCacheCompletedResultBeatsCancellation: when a result lands in the
// same instant the request's context dies, the result wins.
func TestCacheCompletedResultBeatsCancellation(t *testing.T) {
	c := NewCache(nil, 0)
	key := Key{Dataset: "d", K: 3, Algo: "2drrr"}
	if _, err := c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
		return []int{7}, ResultStats{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Do(ctx, key, func(context.Context) ([]int, ResultStats, error) {
		t.Error("recomputed a completed key")
		return nil, ResultStats{}, nil
	})
	if err != nil {
		t.Fatalf("completed result not served to a canceled request: %v", err)
	}
	if !res.Cached || len(res.IDs) != 1 {
		t.Fatalf("res = %+v", res)
	}
}

// newSlowServer registers a dataset on which MDRC at k = 1 runs for many
// seconds (the repository's documented pathology), so HTTP-level
// cancellation provably lands mid-solve.
func newSlowServer(t *testing.T, opts ...ServerOption) (*httptest.Server, *Service) {
	t.Helper()
	svc := New(Config{Seed: 1})
	if _, err := svc.Registry().Generate("slow", "anticorrelated", 400, 4, 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc, opts...))
	t.Cleanup(ts.Close)
	return ts, svc
}

const slowQuery = "/v1/representative?dataset=slow&k=1&algo=mdrc"

// TestClientDisconnectCancelsComputation is the satellite acceptance test:
// a client disconnect on /v1/representative with no co-waiters cancels the
// underlying computation, observable via the cache's in-flight gauge.
func TestClientDisconnectCancelsComputation(t *testing.T) {
	ts, svc := newSlowServer(t)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+slowQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	waitFor(t, "solve to start", func() bool {
		return svc.Metrics().Snapshot().InFlight == 1
	})
	cancel() // client hangs up
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response")
	}
	waitFor(t, "in-flight gauge to drop", func() bool {
		return svc.Metrics().Snapshot().InFlight == 0
	})
	snap := svc.Metrics().Snapshot()
	if snap.Canceled != 1 {
		t.Fatalf("canceled computations = %d, want 1", snap.Canceled)
	}
	if svc.cache.Len() != 0 {
		t.Fatalf("canceled slot not evicted: cache len = %d", svc.cache.Len())
	}
}

// TestRequestTimeout is the acceptance-criteria test: /v1/representative
// honors the daemon's -request-timeout with a structured error body
// naming the error kind.
func TestRequestTimeout(t *testing.T) {
	ts, svc := newSlowServer(t, WithRequestTimeout(80*time.Millisecond))

	resp, err := http.Get(ts.URL + slowQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != "canceled" {
		t.Fatalf("error kind = %q, want canceled (error: %s)", body.Kind, body.Error)
	}
	if body.Error == "" {
		t.Fatal("empty error message")
	}
	// The abandoned computation unwinds too: the deadline killed the last
	// waiter, which cancels the solve.
	waitFor(t, "abandoned solve to unwind", func() bool {
		return svc.Metrics().Snapshot().InFlight == 0
	})
}

// TestV1RoutesAndRetiredAliases: every endpoint answers on /v1; the
// retired unversioned aliases are not routed and answer 404.
func TestV1RoutesAndRetiredAliases(t *testing.T) {
	svc := New(Config{Seed: 1})
	if _, err := svc.Registry().Generate("flights", "dot", 300, 2, 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)

	for _, path := range []string{
		"/v1/healthz",
		"/v1/datasets",
		"/v1/stats",
		"/v1/representative?dataset=flights&k=10",
		"/v1/rank?dataset=flights&id=0&weights=0.5,0.5",
		"/v1/regret?dataset=flights&ids=0,1&samples=100",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	for _, path := range []string{
		"/healthz",
		"/datasets",
		"/stats",
		"/representative?dataset=flights&k=10",
		"/rank?dataset=flights&id=0&weights=0.5,0.5",
		"/regret?dataset=flights&ids=0,1&samples=100",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, http.StatusNotFound)
		}
	}
}

// TestErrorBodyKinds: the structured error envelope names the right kind
// for the client-error classes.
func TestErrorBodyKinds(t *testing.T) {
	svc := New(Config{Seed: 1})
	if _, err := svc.Registry().Generate("flights", "dot", 100, 2, 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)

	cases := []struct {
		url      string
		wantCode int
		wantKind string
	}{
		{"/v1/representative?dataset=nope&k=5", http.StatusNotFound, "not_found"},
		{"/v1/representative?dataset=flights", http.StatusBadRequest, "bad_request"},
		{"/v1/representative?dataset=flights&k=5&algo=quantum", http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode || body.Kind != tc.wantKind {
			t.Errorf("GET %s: (%d, %q), want (%d, %q)",
				tc.url, resp.StatusCode, body.Kind, tc.wantCode, tc.wantKind)
		}
	}
}

// TestBudgetExhaustedSurface: a daemon-level node budget surfaces as a 503
// with kind budget_exhausted — the typed error crosses cache, service and
// HTTP intact.
func TestBudgetExhaustedSurface(t *testing.T) {
	svc := New(Config{Seed: 1, SolverOptions: []rrr.Option{rrr.WithNodeBudget(200)}})
	if _, err := svc.Registry().Generate("slow", "anticorrelated", 300, 4, 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + slowQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != "budget_exhausted" {
		t.Fatalf("kind = %q, want budget_exhausted (error: %s)", body.Kind, body.Error)
	}

	// Budget exhaustion is deterministic under fixed daemon budgets, so
	// the typed error is negatively cached: a retry must get the same 503
	// without burning the node budget a second time.
	before := svc.Metrics().Snapshot().Failures
	resp2, err := http.Get(ts.URL + slowQuery)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("retry status = %d, want 503", resp2.StatusCode)
	}
	if after := svc.Metrics().Snapshot().Failures; after != before {
		t.Fatalf("retry re-ran the doomed solve: failures %d -> %d", before, after)
	}
	if svc.cache.Len() != 1 {
		t.Fatalf("budget-exhausted slot evicted: cache len = %d, want 1", svc.cache.Len())
	}
	// Removing the dataset drops the negative entry like any other slot.
	if !svc.RemoveDataset("slow") {
		t.Fatal("remove failed")
	}
	if svc.cache.Len() != 0 {
		t.Fatalf("negative entry survived dataset removal: len = %d", svc.cache.Len())
	}
}

// TestCacheQueuedCancellationCounted: a flight abandoned while still
// queued behind the admission semaphore must show up in the canceled
// metric even though it never entered the in-flight gauge.
func TestCacheQueuedCancellationCounted(t *testing.T) {
	m := NewMetrics()
	c := NewCache(m, 1) // one compute slot: the second flight must queue

	holderStarted := make(chan struct{})
	holderRelease := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		c.Do(context.Background(), Key{Dataset: "a", K: 1, Algo: "mdrc"},
			func(context.Context) ([]int, ResultStats, error) {
				close(holderStarted)
				<-holderRelease
				return []int{1}, ResultStats{}, nil
			})
	}()
	<-holderStarted

	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	var queuedRan bool
	go func() {
		_, err := c.Do(queuedCtx, Key{Dataset: "b", K: 1, Algo: "mdrc"},
			func(context.Context) ([]int, ResultStats, error) {
				queuedRan = true
				return []int{2}, ResultStats{}, nil
			})
		queuedErr <- err
	}()
	// Let the second flight reach the semaphore queue, then abandon it.
	time.Sleep(20 * time.Millisecond)
	cancelQueued()
	if err := <-queuedErr; err == nil {
		t.Fatal("abandoned queued request got nil error")
	}
	waitFor(t, "queued cancellation to be counted", func() bool {
		return m.Snapshot().Canceled == 1
	})
	close(holderRelease)
	<-holderDone
	if queuedRan {
		t.Fatal("abandoned queued computation ran anyway")
	}
	if snap := m.Snapshot(); snap.InFlight != 0 || snap.Failures != 0 {
		t.Fatalf("in-flight/failures = %d/%d, want 0/0", snap.InFlight, snap.Failures)
	}
}

// TestCacheAbandonedSlotNotJoinable: after the last waiter abandons a
// flight, a new request for the same key must start a fresh flight —
// never inherit the doomed one's cancellation error.
func TestCacheAbandonedSlotNotJoinable(t *testing.T) {
	c := NewCache(nil, 0)
	key := Key{Dataset: "d", K: 9, Algo: "mdrc"}

	started := make(chan struct{})
	reqCtx, cancelReq := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Do(reqCtx, key, blockingCompute(started))
		errc <- err
	}()
	<-started
	cancelReq()
	if err := <-errc; err == nil {
		t.Fatal("abandoning waiter got nil error")
	}
	// The abandon path evicts synchronously: the very next request starts
	// fresh even if the canceled computation hasn't unwound yet.
	res, err := c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
		return []int{11}, ResultStats{}, nil
	})
	if err != nil {
		t.Fatalf("request after abandonment inherited the doomed flight: %v", err)
	}
	if res.Cached || len(res.IDs) != 1 || res.IDs[0] != 11 {
		t.Fatalf("res = %+v, want a fresh computation of [11]", res)
	}
}
