package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrr/internal/trace"
)

// TestCacheSingleflight gates the compute until all requesters are provably
// waiting on the same key, then asserts exactly one computation ran and
// everyone saw its result.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(NewMetrics(), 0)
	const waiters = 8

	var computations atomic.Int64
	entered := make(chan struct{}) // leader signals it is inside compute
	release := make(chan struct{}) // test releases the leader
	key := Key{Dataset: "d", K: 10, Algo: "mdrc"}

	var wg sync.WaitGroup
	results := make([]CachedResult, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
				computations.Add(1)
				close(entered)
				<-release
				return []int{1, 2, 3}, ResultStats{Nodes: 7}, nil
			})
		}(i)
	}

	<-entered // one leader is mid-compute; followers are blocking on its slot
	// Give followers a moment to reach the cache before releasing.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Fatalf("computations = %d, want 1", n)
	}
	leaders := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if got := results[i].IDs; len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Fatalf("waiter %d: IDs = %v", i, got)
		}
		if results[i].Stats.Nodes != 7 {
			t.Fatalf("waiter %d: Nodes = %d", i, results[i].Stats.Nodes)
		}
		if !results[i].Cached {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("uncached (leader) results = %d, want 1", leaders)
	}
}

// TestCacheHitAfterCompletion: a request arriving after the computation
// finished is a pure cache hit — no recomputation.
func TestCacheHitAfterCompletion(t *testing.T) {
	m := NewMetrics()
	c := NewCache(m, 0)
	key := Key{Dataset: "d", K: 5, Algo: "2drrr"}
	calls := 0
	compute := func(context.Context) ([]int, ResultStats, error) {
		calls++
		return []int{9}, ResultStats{}, nil
	}
	first, err := c.Do(context.Background(), key, compute)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	second, err := c.Do(context.Background(), key, compute)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second request not served from cache")
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	snap := m.Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
}

// TestCacheDistinctKeysIndependent: different keys never share a flight.
func TestCacheDistinctKeysIndependent(t *testing.T) {
	c := NewCache(nil, 0)
	var calls atomic.Int64
	compute := func(context.Context) ([]int, ResultStats, error) {
		calls.Add(1)
		return []int{1}, ResultStats{}, nil
	}
	keys := []Key{
		{Dataset: "a", K: 1, Algo: "mdrc"},
		{Dataset: "a", K: 2, Algo: "mdrc"},
		{Dataset: "a", K: 1, Algo: "mdrrr"},
		{Dataset: "b", K: 1, Algo: "mdrc"},
	}
	for _, k := range keys {
		if _, err := c.Do(context.Background(), k, compute); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != int64(len(keys)) {
		t.Fatalf("computations = %d, want %d", calls.Load(), len(keys))
	}
	if c.Len() != len(keys) {
		t.Fatalf("cache len = %d, want %d", c.Len(), len(keys))
	}
}

// TestCacheErrorEviction: a failed computation propagates its error to the
// requests that shared the flight but is evicted, so the next request
// retries and can succeed.
func TestCacheErrorEviction(t *testing.T) {
	m := NewMetrics()
	c := NewCache(m, 0)
	key := Key{Dataset: "d", K: 3, Algo: "mdrc"}
	boom := errors.New("boom")
	if _, err := c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
		return nil, ResultStats{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed slot not evicted: len = %d", c.Len())
	}
	res, err := c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
		return []int{4}, ResultStats{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("retry after failure reported cached")
	}
	if m.Snapshot().Failures != 1 {
		t.Fatalf("failures = %d, want 1", m.Snapshot().Failures)
	}
}

// TestCachePanicUnwedges: a panicking computation must release every
// waiter with an error and evict the slot so later requests retry. The
// computation runs on a detached goroutine, so the cache recovers the
// panic itself (an unrecovered panic there would kill the process) and
// publishes it as the flight's error.
func TestCachePanicUnwedges(t *testing.T) {
	m := NewMetrics()
	c := NewCache(m, 0)
	key := Key{Dataset: "d", K: 3, Algo: "mdrc"}

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
			close(entered)
			<-release
			panic("solver blew up")
		})
		leaderErr <- err
	}()
	<-entered

	followerErr := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
			t.Error("follower ran its own computation while leader was in flight")
			return nil, ResultStats{}, nil
		})
		followerErr <- err
	}()
	// Let the follower reach the slot, then blow up the computation.
	time.Sleep(10 * time.Millisecond)
	close(release)

	if err := <-leaderErr; err == nil || !strings.Contains(err.Error(), "solver blew up") {
		t.Fatalf("leader error = %v, want the recovered panic message", err)
	}
	if err := <-followerErr; err == nil {
		t.Fatal("follower got nil error from a panicked computation")
	}
	if c.Len() != 0 {
		t.Fatalf("panicked slot not evicted: len = %d", c.Len())
	}
	snap := m.Snapshot()
	if snap.InFlight != 0 || snap.Failures != 1 {
		t.Fatalf("in-flight/failures = %d/%d, want 0/1", snap.InFlight, snap.Failures)
	}
	// The key must be usable again.
	res, err := c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
		return []int{5}, ResultStats{}, nil
	})
	if err != nil || res.Cached {
		t.Fatalf("retry after panic: res=%+v err=%v", res, err)
	}
}

// TestCacheAdmissionControl: with a compute limit of 1, a second distinct
// key must not start computing while the first is running.
func TestCacheAdmissionControl(t *testing.T) {
	c := NewCache(nil, 1)
	aEntered := make(chan struct{})
	aRelease := make(chan struct{})
	var bStarted atomic.Bool

	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		c.Do(context.Background(), Key{Dataset: "a", K: 1, Algo: "mdrc"}, func(context.Context) ([]int, ResultStats, error) {
			close(aEntered)
			<-aRelease
			return []int{1}, ResultStats{}, nil
		})
	}()
	<-aEntered

	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		c.Do(context.Background(), Key{Dataset: "b", K: 1, Algo: "mdrc"}, func(context.Context) ([]int, ResultStats, error) {
			bStarted.Store(true)
			return []int{2}, ResultStats{}, nil
		})
	}()
	time.Sleep(20 * time.Millisecond)
	if bStarted.Load() {
		t.Fatal("second computation started while the first held the only compute slot")
	}
	close(aRelease)
	<-aDone
	<-bDone
	if !bStarted.Load() {
		t.Fatal("second computation never ran after the slot freed")
	}
}

// TestCacheInvalidateDataset drops only the named dataset's slots.
func TestCacheInvalidateDataset(t *testing.T) {
	c := NewCache(nil, 0)
	ok := func(context.Context) ([]int, ResultStats, error) { return []int{1}, ResultStats{}, nil }
	for _, k := range []Key{
		{Dataset: "a", K: 1, Algo: "mdrc"},
		{Dataset: "a", K: 2, Algo: "mdrc"},
		{Dataset: "b", K: 1, Algo: "mdrc"},
	} {
		if _, err := c.Do(context.Background(), k, ok); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := c.InvalidateDataset("a"); dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if c.Len() != 1 {
		t.Fatalf("len after invalidate = %d, want 1", c.Len())
	}
	if _, hit := c.Peek(Key{Dataset: "b", K: 1, Algo: "mdrc"}); !hit {
		t.Fatal("unrelated dataset lost its slot")
	}
}

// TestMetricsHistogram sanity-checks bucket placement and the bucket-count
// constant that the array type cannot assert at compile time.
func TestMetricsHistogram(t *testing.T) {
	if numBuckets != len(latencyBuckets)+1 {
		t.Fatalf("numBuckets = %d, want len(latencyBuckets)+1 = %d", numBuckets, len(latencyBuckets)+1)
	}
	m := NewMetrics()
	m.solved("mdrc", 3*time.Millisecond, trace.TraceID{})
	m.solved("mdrc", time.Minute, trace.TraceID{}) // overflow bucket
	snap := m.Snapshot()
	if snap.InFlight != 0 {
		t.Fatalf("in-flight = %d, want 0", snap.InFlight)
	}
	h, ok := snap.Latencies["mdrc"]
	if !ok {
		t.Fatal("no mdrc histogram")
	}
	if h.Count != 2 {
		t.Fatalf("count = %d, want 2", h.Count)
	}
	if h.Buckets["le_5ms"] != 1 {
		t.Fatalf("le_5ms bucket = %d, want 1 (buckets: %v)", h.Buckets["le_5ms"], h.Buckets)
	}
	if h.Buckets["+inf"] != 1 {
		t.Fatalf("+inf bucket = %d, want 1 (buckets: %v)", h.Buckets["+inf"], h.Buckets)
	}
	if snap.Computations != 2 {
		t.Fatalf("computations = %d, want 2", snap.Computations)
	}
}
