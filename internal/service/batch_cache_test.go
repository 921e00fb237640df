package service

// Tests of the cache's key-set claims: a batch registers every key it will
// produce before computing, single requests coalesce onto in-flight
// batches, per-key results stream out as they are filled, and waiter
// accounting spans the whole key set.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rrr"
)

func batchKeys(ks ...int) []Key {
	keys := make([]Key, len(ks))
	for i, k := range ks {
		keys[i] = Key{Dataset: "d", K: k, Algo: "2drrr"}
	}
	return keys
}

// TestDoBatchClaimsAndFills: a batch computes every owned key in one
// compute invocation, results stream per key, and all keys stay cached.
func TestDoBatchClaimsAndFills(t *testing.T) {
	m := NewMetrics()
	c := NewCache(m, 0)
	keys := batchKeys(1, 2, 3)
	var invocations atomic.Int64
	results, errs := c.DoBatch(context.Background(), keys, func(ctx context.Context, owned []Key, fill BatchFill) {
		invocations.Add(1)
		if len(owned) != 3 {
			t.Errorf("owned = %v, want all 3 keys", owned)
		}
		for _, key := range owned {
			fill(key, []int{key.K * 10}, ResultStats{Nodes: key.K}, nil)
		}
	})
	if invocations.Load() != 1 {
		t.Fatalf("compute invoked %d times, want 1", invocations.Load())
	}
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	for _, key := range keys {
		res, ok := results[key]
		if !ok || res.Cached || len(res.IDs) != 1 || res.IDs[0] != key.K*10 {
			t.Fatalf("key %v: res = %+v ok=%v", key, res, ok)
		}
	}
	// Every key is now a plain cache hit, for Do and DoBatch alike.
	for _, key := range keys {
		res, err := c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
			t.Error("recomputed a batch-filled key")
			return nil, ResultStats{}, nil
		})
		if err != nil || !res.Cached {
			t.Fatalf("key %v not served from cache: %+v %v", key, res, err)
		}
	}
	snap := m.Snapshot()
	if snap.Batches != 1 || snap.BatchItems != 3 {
		t.Fatalf("batches/items = %d/%d, want 1/3", snap.Batches, snap.BatchItems)
	}
	if snap.CacheMisses != 3 || snap.CacheHits != 3 {
		t.Fatalf("misses/hits = %d/%d, want 3/3", snap.CacheMisses, snap.CacheHits)
	}
}

// TestDoBatchCoalescesSingleRequest is the coalescing acceptance property:
// a single-key Do arriving while a batch covering its key is in flight
// joins the batch computation instead of starting its own.
func TestDoBatchCoalescesSingleRequest(t *testing.T) {
	m := NewMetrics()
	c := NewCache(m, 0)
	keys := batchKeys(7, 8)

	entered := make(chan struct{})
	release := make(chan struct{})
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		c.DoBatch(context.Background(), keys, func(ctx context.Context, owned []Key, fill BatchFill) {
			close(entered)
			<-release
			for _, key := range owned {
				fill(key, []int{42}, ResultStats{}, nil)
			}
		})
	}()
	<-entered

	var singleComputed atomic.Bool
	singleRes := make(chan CachedResult, 1)
	singleErr := make(chan error, 1)
	go func() {
		res, err := c.Do(context.Background(), keys[0], func(context.Context) ([]int, ResultStats, error) {
			singleComputed.Store(true)
			return nil, ResultStats{}, nil
		})
		singleRes <- res
		singleErr <- err
	}()
	// The single request must be attached to the batch's slot before we
	// release the batch.
	waitFor(t, "single request to join the batch flight", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		slot := c.slots[keys[0]]
		return slot != nil && slot.waiters == 2
	})
	close(release)
	<-batchDone
	if err := <-singleErr; err != nil {
		t.Fatal(err)
	}
	if res := <-singleRes; !res.Cached || len(res.IDs) != 1 || res.IDs[0] != 42 {
		t.Fatalf("coalesced result = %+v, want the batch's [42] as a hit", res)
	}
	if singleComputed.Load() {
		t.Fatal("single request ran its own computation while a batch claimed its key")
	}
	snap := m.Snapshot()
	if snap.CoalescedJoins != 1 {
		t.Fatalf("coalesced joins = %d, want 1", snap.CoalescedJoins)
	}
}

// TestDoBatchStreamsEarlyKeys: a waiter on an already-filled key is
// released before the batch finishes its remaining keys.
func TestDoBatchStreamsEarlyKeys(t *testing.T) {
	c := NewCache(nil, 0)
	keys := batchKeys(1, 2)
	firstFilled := make(chan struct{})
	release := make(chan struct{})
	go c.DoBatch(context.Background(), keys, func(ctx context.Context, owned []Key, fill BatchFill) {
		fill(keys[0], []int{1}, ResultStats{}, nil)
		close(firstFilled)
		<-release
		fill(keys[1], []int{2}, ResultStats{}, nil)
	})
	<-firstFilled
	// keys[0] is done; a Do on it must return immediately even though the
	// batch is still holding keys[1] open.
	res, err := c.Do(context.Background(), keys[0], func(context.Context) ([]int, ResultStats, error) {
		t.Error("recomputed a filled key")
		return nil, ResultStats{}, nil
	})
	if err != nil || len(res.IDs) != 1 || res.IDs[0] != 1 {
		t.Fatalf("early key: res=%+v err=%v", res, err)
	}
	close(release)
}

// TestDoBatchLastWaiterCancelsFlight: when every request waiting on any
// unfilled key of a batch has gone, the batch's context dies.
func TestDoBatchLastWaiterCancelsFlight(t *testing.T) {
	m := NewMetrics()
	c := NewCache(m, 0)
	keys := batchKeys(1, 2)

	started := make(chan struct{})
	reqCtx, cancelReq := context.WithCancel(context.Background())
	done := make(chan map[Key]error, 1)
	go func() {
		_, errs := c.DoBatch(reqCtx, keys, func(ctx context.Context, owned []Key, fill BatchFill) {
			close(started)
			<-ctx.Done() // the flight must be canceled for this to return
			for _, key := range owned {
				fill(key, nil, ResultStats{}, ctx.Err())
			}
		})
		done <- errs
	}()
	<-started
	cancelReq()
	errs := <-done
	if len(errs) != 2 {
		t.Fatalf("errs = %v, want both keys abandoned", errs)
	}
	for key, err := range errs {
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "abandoned") {
			t.Fatalf("key %v: err = %v", key, err)
		}
	}
	// The canceled computation unwinds and evicts both slots.
	waitFor(t, "batch to unwind", func() bool {
		return c.Len() == 0 && m.Snapshot().InFlight == 0
	})
}

// TestDoBatchAbandonKeepsCompletedKeys: a caller abandoning a batch must
// not evict keys whose results already exist — completed work is
// collected, not thrown away, whatever order the wait loop visits keys.
func TestDoBatchAbandonKeepsCompletedKeys(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		c := NewCache(nil, 0)
		keys := batchKeys(1, 2)
		// keys[0] is already cached; keys[1] will block.
		if _, err := c.Do(context.Background(), keys[0], func(context.Context) ([]int, ResultStats, error) {
			return []int{1}, ResultStats{}, nil
		}); err != nil {
			t.Fatal(err)
		}
		started := make(chan struct{})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var results map[Key]CachedResult
		var errs map[Key]error
		go func() {
			defer close(done)
			results, errs = c.DoBatch(ctx, keys, func(bctx context.Context, owned []Key, fill BatchFill) {
				close(started)
				<-bctx.Done()
				for _, key := range owned {
					fill(key, nil, ResultStats{}, bctx.Err())
				}
			})
		}()
		<-started
		cancel()
		<-done
		// The cached key's result survives the abandonment — collected by
		// this very call, and still served to future requests.
		if res, ok := results[keys[0]]; !ok || !res.Cached || len(res.IDs) != 1 {
			t.Fatalf("trial %d: cached key not collected on abandon: results=%v errs=%v", trial, results, errs)
		}
		if _, ok := errs[keys[1]]; !ok {
			t.Fatalf("trial %d: blocked key not reported abandoned: %v", trial, errs)
		}
		if _, ok := c.Peek(keys[0]); !ok {
			t.Fatalf("trial %d: abandonment evicted a completed cache entry", trial)
		}
	}
}

// TestDoBatchSurvivingJoinerKeepsFlight: the batch caller abandoning does
// NOT kill the flight while a coalesced single request still waits on one
// of its keys.
func TestDoBatchSurvivingJoinerKeepsFlight(t *testing.T) {
	c := NewCache(nil, 0)
	keys := batchKeys(1, 2)

	started := make(chan struct{})
	release := make(chan struct{})
	batchCtx, cancelBatch := context.WithCancel(context.Background())
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		c.DoBatch(batchCtx, keys, func(ctx context.Context, owned []Key, fill BatchFill) {
			close(started)
			select {
			case <-ctx.Done():
				for _, key := range owned {
					fill(key, nil, ResultStats{}, ctx.Err())
				}
			case <-release:
				for _, key := range owned {
					fill(key, []int{9}, ResultStats{}, nil)
				}
			}
		})
	}()
	<-started

	joinerRes := make(chan CachedResult, 1)
	joinerErr := make(chan error, 1)
	go func() {
		res, err := c.Do(context.Background(), keys[1], func(context.Context) ([]int, ResultStats, error) {
			t.Error("joiner computed despite the batch claim")
			return nil, ResultStats{}, nil
		})
		joinerRes <- res
		joinerErr <- err
	}()
	waitFor(t, "joiner to attach", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		slot := c.slots[keys[1]]
		return slot != nil && slot.waiters == 2
	})

	cancelBatch()
	// The joiner still holds a reference on keys[1]: the flight must stay
	// alive. Give the (would-be) cancellation a moment to land wrongly.
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-batchDone
	if err := <-joinerErr; err != nil {
		t.Fatalf("surviving joiner got %v; the flight died under it", err)
	}
	if res := <-joinerRes; len(res.IDs) != 1 || res.IDs[0] != 9 {
		t.Fatalf("joiner res = %+v", res)
	}
}

// TestDoBatchJoinsExistingWork: keys already cached or in flight are not
// claimed again; only the genuinely new keys reach compute.
func TestDoBatchJoinsExistingWork(t *testing.T) {
	c := NewCache(nil, 0)
	keys := batchKeys(1, 2, 3)
	// Pre-compute key 1.
	if _, err := c.Do(context.Background(), keys[0], func(context.Context) ([]int, ResultStats, error) {
		return []int{1}, ResultStats{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	results, errs := c.DoBatch(context.Background(), keys, func(ctx context.Context, owned []Key, fill BatchFill) {
		if len(owned) != 2 {
			t.Errorf("owned = %v, want only the 2 uncached keys", owned)
		}
		for _, key := range owned {
			fill(key, []int{key.K}, ResultStats{}, nil)
		}
	})
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if !results[keys[0]].Cached {
		t.Fatal("pre-computed key not reported as a hit")
	}
	if results[keys[1]].Cached || results[keys[2]].Cached {
		t.Fatal("owned keys reported as hits")
	}
}

// TestDoBatchUnpublishedKeysFail: a compute that returns without filling
// every owned key fails the stragglers instead of wedging their waiters,
// and a panicking compute unwedges everything.
func TestDoBatchUnpublishedKeysFail(t *testing.T) {
	c := NewCache(nil, 0)
	keys := batchKeys(1, 2)
	results, errs := c.DoBatch(context.Background(), keys, func(ctx context.Context, owned []Key, fill BatchFill) {
		fill(keys[0], []int{1}, ResultStats{}, nil)
		// keys[1] never filled.
	})
	if len(results) != 1 || len(errs) != 1 {
		t.Fatalf("results/errs = %v / %v", results, errs)
	}
	if err := errs[keys[1]]; err == nil || !strings.Contains(err.Error(), "without publishing") {
		t.Fatalf("unpublished key err = %v", err)
	}
	// The failed key is evicted and retryable; the filled one is cached.
	if c.Len() != 1 {
		t.Fatalf("cache len = %d, want 1 (failed key evicted)", c.Len())
	}

	_, errs = c.DoBatch(context.Background(), batchKeys(5), func(ctx context.Context, owned []Key, fill BatchFill) {
		panic("batch solver blew up")
	})
	if err := errs[batchKeys(5)[0]]; err == nil || !strings.Contains(err.Error(), "solver blew up") {
		t.Fatalf("panicked batch err = %v", err)
	}
	waitFor(t, "panicked batch to unwind", func() bool { return c.Len() == 1 })
}

// TestDoBatchBudgetErrorCached: a budget-exhausted item is negatively
// cached by the batch exactly as by a single computation.
func TestDoBatchBudgetErrorCached(t *testing.T) {
	c := NewCache(nil, 0)
	key := batchKeys(4)[0]
	budgetErr := fmt.Errorf("solve failed: %w", rrr.ErrBudgetExhausted)
	_, errs := c.DoBatch(context.Background(), []Key{key}, func(ctx context.Context, owned []Key, fill BatchFill) {
		fill(key, nil, ResultStats{}, budgetErr)
	})
	if !errors.Is(errs[key], rrr.ErrBudgetExhausted) {
		t.Fatalf("err = %v", errs[key])
	}
	if c.Len() != 1 {
		t.Fatalf("budget-exhausted slot evicted: len = %d", c.Len())
	}
	// The negative entry is shared without recomputation.
	if _, err := c.Do(context.Background(), key, func(context.Context) ([]int, ResultStats, error) {
		t.Error("re-ran a negatively cached key")
		return nil, ResultStats{}, nil
	}); !errors.Is(err, rrr.ErrBudgetExhausted) {
		t.Fatalf("retry err = %v", err)
	}
}

// TestDoBatchCountedBeforeWake: a batch's completion accounting (the
// in-flight gauge and its latency entry) lands before its last key wakes
// a waiter, so a caller reading the metrics right after DoBatch returns
// sees the batch counted — even while compute is still running after its
// last fill.
func TestDoBatchCountedBeforeWake(t *testing.T) {
	m := NewMetrics()
	c := NewCache(m, 0)
	release := make(chan struct{})
	defer close(release)
	_, errs := c.DoBatch(context.Background(), batchKeys(1, 2), func(ctx context.Context, owned []Key, fill BatchFill) {
		for _, key := range owned {
			fill(key, []int{key.K}, ResultStats{}, nil)
		}
		<-release
	})
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	snap := m.Snapshot()
	if snap.InFlight != 0 || snap.Latencies["batch"].Count != 1 || snap.Computations != 1 {
		t.Fatalf("in_flight/batch count/computations = %d/%d/%d right after DoBatch returned, want 0/1/1",
			snap.InFlight, snap.Latencies["batch"].Count, snap.Computations)
	}
}
