package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rrr"
	"rrr/internal/trace"
)

// Key identifies one precomputation: a representative of dataset Dataset
// at rank target K by algorithm Algo. Algo is the *resolved* algorithm
// (never "auto"), so "auto" and its resolution share one cache slot. Gen
// is the registry entry's registration generation: a re-registered dataset
// gets fresh keys, so results computed against removed data — including
// computations in flight across the removal — are unreachable rather than
// stale.
//
// K > 0 is a primal query. K < 0 encodes the dual size query
// MinimalKForSize(-K): the dual's answer is deterministic per (dataset,
// gen, size, algorithm) exactly like a primal solve, so it caches and
// coalesces under the same machinery with a disjoint key range.
type Key struct {
	Dataset string
	Gen     int64
	K       int
	Algo    string
}

// flight is one computation: a detached goroutine running compute over
// the keys it claimed. Do starts a one-key flight, DoBatch a batch flight
// over every key it could not join. refs counts the waiters currently
// attached to the flight's *unfilled* slots (guarded by Cache.mu): when it
// reaches zero while unfilled slots remain, nobody is waiting for anything
// the flight still has to produce, and its context is canceled. A waiter on
// an already-filled slot holds no reference — its result exists
// regardless of the flight's fate.
type flight struct {
	cancel context.CancelFunc
	// batch marks a DoBatch flight: its latency is recorded under "batch"
	// whatever each key's fate, and joining one of its unfilled keys counts
	// as a coalesced join.
	batch    bool
	refs     int
	unfilled int

	// Set by the flight's goroutine once admitted (zero while queued), read
	// by its fills.
	start time.Time
	tid   trace.TraceID
}

// computation is one cache slot. Its flight runs on its own goroutine
// under a context detached from any single request: requests — the one
// that created the flight and any that joined it — are *waiters*. A waiter
// whose own context dies leaves; when no waiter is left on anything the
// flight still has to produce, the flight's context is canceled, so
// abandoned work stops burning CPU instead of running to completion for
// nobody. A slot whose computation failed (including by cancellation) is
// evicted so later requests retry instead of caching the error forever.
type computation struct {
	done chan struct{}
	// fl is the flight computing this slot; nil only for slots Put
	// creates already filled.
	fl *flight

	// waiters is guarded by Cache.mu: the number of requests currently
	// blocked on (or about to block on) this slot.
	waiters int
	// filled is guarded by Cache.mu: the slot's result has been published
	// (done is closed right after).
	filled bool

	// Written by the computing goroutine before close(done), read-only
	// afterwards.
	ids     []int
	stats   ResultStats
	elapsed time.Duration
	err     error

	// encoded is the pre-marshaled HTTP response body for this result,
	// attached lazily by the serving layer on the first cache hit so every
	// later hit writes bytes without re-encoding. It travels with the slot
	// through Rekey — the body carries no generation, so a still-exact
	// carry-over keeps it valid.
	encoded atomic.Pointer[[]byte]
}

// succeeded reports whether the slot's computation is done and succeeded:
// the one test every read accessor applies before serving a slot.
func (s *computation) succeeded() bool {
	select {
	case <-s.done:
		return s.err == nil
	default:
		return false
	}
}

// result is the slot's completed result as a waiter receives it.
func (s *computation) result(cached bool) CachedResult {
	return CachedResult{IDs: s.ids, Stats: s.stats, Elapsed: s.elapsed, Cached: cached}
}

// ResultStats carries the solver's work counters through the cache.
type ResultStats struct {
	KSets int
	Nodes int
	// BestK is the achieved k of a dual (negative-K) computation; zero
	// for primal results.
	BestK int
	// Candidates is the containment pool size a delta repair re-solved
	// on; zero for computations that ran on the whole dataset.
	Candidates int
}

// Cache is a keyed precomputation cache with singleflight semantics:
// concurrent requests for the same key share exactly one underlying
// computation, and completed computations are served from memory until
// Invalidate. DoBatch extends the claim to a *set* of keys: a batch
// registers every key it will produce before computing, so a single-key
// request arriving while the batch is in flight joins that computation
// instead of starting its own. The cache deliberately has no size bound —
// entries are a few ints per (dataset, k, algorithm) triple — but
// InvalidateDataset keeps it in step with dataset removal.
type Cache struct {
	mu      sync.Mutex
	slots   map[Key]*computation
	metrics *Metrics
	// sem bounds the number of concurrently *running* computations —
	// admission control, so a burst of distinct keys (say, a client
	// sweeping k) queues solves instead of launching them all at once and
	// exhausting CPU and memory. Followers of an in-flight key wait on
	// the slot, not the semaphore, so sharing is never throttled. A batch
	// holds one admission slot for all its keys; its internal worker pool
	// bounds the fan-out.
	sem chan struct{}
}

// NewCache returns an empty cache reporting into metrics (may be nil).
// maxConcurrent bounds simultaneously running computations; values <= 0
// default to GOMAXPROCS (each solver already parallelizes internally, so
// more concurrent solves than cores only adds memory pressure).
func NewCache(metrics *Metrics, maxConcurrent int) *Cache {
	if maxConcurrent <= 0 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	return &Cache{
		slots:   make(map[Key]*computation),
		metrics: metrics,
		sem:     make(chan struct{}, maxConcurrent),
	}
}

// CachedResult is what Do returns: the representative IDs plus provenance
// (whether this request hit the cache and how long the underlying
// computation took).
type CachedResult struct {
	IDs     []int
	Stats   ResultStats
	Elapsed time.Duration
	Cached  bool
}

// Do returns the cached result for key, computing it via compute if absent.
// If another request is already computing the key, Do waits for it and
// shares its result (counted as a hit) — including when the in-flight
// computation is a batch that claimed the key (counted as a coalesced
// join). compute runs as a one-key flight on its own goroutine under a
// context detached from ctx, so one client disconnecting never kills a
// solve other clients are waiting on; but when ctx dies and this was the
// last waiter, the computation's context is canceled and the solve stops.
// compute must honor its context for that to interrupt work.
func (c *Cache) Do(ctx context.Context, key Key, compute func(context.Context) ([]int, ResultStats, error)) (CachedResult, error) {
	ws := []waiter{{key: key}}
	c.do(ctx, ws, false, func(ctx context.Context, _ []Key, fill BatchFill) {
		ids, stats, err := compute(ctx)
		fill(key, ids, stats, err)
	})
	return ws[0].res, ws[0].err
}

// BatchFill publishes one key's outcome from inside a DoBatch compute
// function. It must be called exactly once per owned key.
type BatchFill func(key Key, ids []int, stats ResultStats, err error)

// DoBatch resolves a set of keys through one shared computation. Keys
// already cached or in flight are joined exactly as Do joins them; the
// remaining keys are *claimed* — their slots exist, marked in-flight,
// before compute starts — and compute is invoked once, on a detached
// goroutine, with the claimed keys. It must publish every owned key
// exactly once via fill (streaming as results become ready); owned keys
// it fails to publish are failed on its behalf when it returns.
//
// Claiming is what makes batches coalesce: a single-key Do arriving while
// the batch is in flight finds the claimed slot and waits on it instead
// of computing. Waiter accounting spans the key set — the batch caller
// counts as one waiter per owned slot, and the flight's context is
// canceled only when no request is waiting on any *unpublished* slot.
//
// The returned maps hold one entry per distinct input key: a result or
// that key's error (computation failure, or abandonment when ctx died
// first). Like Do, a caller abandoning some keys keeps results it already
// collected.
func (c *Cache) DoBatch(ctx context.Context, keys []Key, compute func(ctx context.Context, owned []Key, fill BatchFill)) (map[Key]CachedResult, map[Key]error) {
	ws := make([]waiter, 0, len(keys))
	seen := make(map[Key]bool, len(keys))
	for _, key := range keys {
		if !seen[key] {
			seen[key] = true
			ws = append(ws, waiter{key: key})
		}
	}
	c.do(ctx, ws, true, compute)
	results := make(map[Key]CachedResult, len(ws))
	errs := make(map[Key]error)
	for _, w := range ws {
		if w.err != nil {
			errs[w.key] = w.err
		} else {
			results[w.key] = w.res
		}
	}
	return results, errs
}

// waiter is one request's interest in one key, and its outcome.
type waiter struct {
	key  Key
	slot *computation
	// joined: the slot existed when the request arrived, so a result
	// served from it is a hit rather than fresh.
	joined bool
	res    CachedResult
	err    error
}

// do is the one protocol behind Do and DoBatch: claim, run, fill, wait.
// Under one lock it joins every existing slot of ws and claims the rest
// for a new flight; the flight runs compute on its own goroutine while
// the request waits for each key in turn, collecting what finished and
// leaving what did not if ctx dies first.
func (c *Cache) do(ctx context.Context, ws []waiter, batch bool, compute func(context.Context, []Key, BatchFill)) {
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		own    *flight
		runCtx context.Context
		owned  []Key
		slots  map[Key]*computation
	)
	c.mu.Lock()
	for i := range ws {
		w := &ws[i]
		slot, found := c.slots[w.key]
		switch {
		case !found:
			if len(owned) == 0 {
				// Detach carries the creating request's trace state onto the
				// flight's context, so solver spans land in that request's
				// trace while the compute stays immune to its cancellation.
				var cancel context.CancelFunc
				runCtx, cancel = context.WithCancel(trace.Detach(ctx))
				own = &flight{cancel: cancel, batch: batch}
				slots = make(map[Key]*computation, len(ws)-i)
			}
			slot = &computation{done: make(chan struct{}), fl: own}
			c.slots[w.key] = slot
			slots[w.key] = slot
			owned = append(owned, w.key)
			own.unfilled++
			c.metrics.add(cacheMisses, 1)
		case !slot.filled && slot.fl.batch:
			// Joining a key a batch claimed but hasn't produced yet: the
			// coalescing the batch engine exists for.
			c.metrics.add(coalescedJoins, 1)
		}
		w.slot, w.joined = slot, found
		slot.waiters++
		if !slot.filled {
			slot.fl.refs++
		}
	}
	c.mu.Unlock()
	if len(owned) > 0 {
		if batch {
			c.metrics.add(batches, 1)
			c.metrics.add(batchItems, len(owned))
		}
		go c.run(runCtx, own, owned, slots, compute)
	}

	rec, parent := trace.FromContext(ctx)
	waitID := rec.Start("cache_wait", parent)
	defer rec.End(waitID)
	for i := range ws {
		select {
		case <-ws[i].slot.done:
			c.mu.Lock()
			c.settleLocked(ctx, &ws[i])
			c.mu.Unlock()
		case <-ctx.Done():
			// The request died with keys outstanding: collect any that
			// completed anyway (their results are done work — serving them
			// beats evicting them), leave the rest and report those keys
			// abandoned.
			c.mu.Lock()
			for j := i; j < len(ws); j++ {
				c.settleLocked(ctx, &ws[j])
			}
			c.mu.Unlock()
			return
		}
	}
}

// settleLocked ends one waiter's wait. A finished slot yields its error or
// its result, counted as a hit when the request joined the slot. An
// unfinished one is left by the one leave rule: the waiter drops its
// flight's refs if the slot is still unfilled; the slot is evicted when its
// own waiter count reaches zero, so a request arriving after this point
// starts a fresh flight instead of joining a doomed one; the flight is
// canceled when refs reaches zero. Callers hold c.mu.
func (c *Cache) settleLocked(ctx context.Context, w *waiter) {
	slot := w.slot
	slot.waiters--
	select {
	case <-slot.done:
		// Prefer a completed result over reporting cancellation when both
		// raced: the work is done, serve it.
		if w.err = slot.err; w.err == nil {
			w.res = slot.result(w.joined)
			if w.joined {
				c.metrics.add(cacheHits, 1)
			}
		}
		return
	default:
	}
	w.err = fmt.Errorf("service: request for %s on %q (k=%d) abandoned: %w",
		w.key.Algo, w.key.Dataset, w.key.K, ctx.Err())
	if slot.filled {
		// fill already released this waiter's hold on the flight; done
		// closes right after.
		return
	}
	if slot.waiters == 0 && c.slots[w.key] == slot {
		delete(c.slots, w.key)
	}
	slot.fl.refs--
	if slot.fl.refs == 0 {
		// Last interest gone: nobody wants what the flight has left to
		// produce. Canceling only closes channels, so it is safe under
		// c.mu.
		slot.fl.cancel()
	}
}

// errUnpublished is what a flight's waiters receive for a key its
// computation returned without publishing. One value serves every
// flight, so the deferred sweep in run allocates nothing on the common
// path, where every key was published and the sweep fills nothing.
var errUnpublished = errors.New("service: computation ended without publishing this key")

// run executes one flight on its own goroutine, holding a single admission
// slot for all its keys: admission control, compute, and failing whatever
// compute left unpublished (early return, panic) so no waiter wedges.
// Panics in compute are recovered and published as errors — the goroutine
// is detached from any request, so net/http's per-request recovery cannot
// catch them, and re-panicking would kill the process.
func (c *Cache) run(ctx context.Context, fl *flight, owned []Key, slots map[Key]*computation, compute func(context.Context, []Key, BatchFill)) {
	defer fl.cancel() // release the context's resources on every path
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-ctx.Done():
		// Every waiter left while the flight was still queued behind the
		// admission semaphore; it never started. One cancellation however
		// many keys it claimed — it never entered the in-flight gauge, but
		// overload cancellations must not be invisible.
		c.metrics.add(canceled, 1)
		err := fmt.Errorf("service: computation canceled while queued: %w", ctx.Err())
		for _, key := range owned {
			c.fill(fl, key, slots[key], nil, ResultStats{}, err)
		}
		return
	}
	c.metrics.add(inFlight, 1)
	rec, _ := trace.FromContext(ctx)
	fl.tid = rec.TraceID()
	fl.start = time.Now()
	finished := false
	defer func() {
		err := errUnpublished
		if !finished {
			err = fmt.Errorf("service: computation panicked: %v", recover())
		}
		for _, key := range owned {
			c.fill(fl, key, slots[key], nil, ResultStats{}, err)
		}
	}()
	compute(ctx, owned, func(key Key, ids []int, stats ResultStats, err error) {
		// Only claimed slots can be filled: publishing a key the flight
		// merely joined is a no-op, not a write into a foreign computation.
		if slot, ok := slots[key]; ok {
			c.fill(fl, key, slot, ids, stats, err)
		}
	})
	finished = true
}

// fill publishes one claimed slot's outcome, once (later fills of the
// same slot are no-ops): record it, evict a failure, release the slot's
// waiters' hold on the flight, and wake them. Budget exhaustion is not
// evicted — it is deterministic for a (dataset, k, algorithm) triple under
// the daemon's configured budgets, so the typed error is cached until the
// dataset is removed; evicting it would make every retry of a doomed key
// burn the full budget again.
//
// The fill that completes an admitted flight closes the flight's
// accounting before it wakes anyone, so a request that has seen all its
// keys finish also sees the flight counted.
func (c *Cache) fill(fl *flight, key Key, slot *computation, ids []int, stats ResultStats, err error) {
	started := !fl.start.IsZero()
	var elapsed time.Duration
	if started {
		elapsed = time.Since(fl.start)
	}
	c.mu.Lock()
	if slot.filled {
		c.mu.Unlock()
		return
	}
	slot.ids, slot.stats, slot.err, slot.elapsed = ids, stats, err, elapsed
	slot.filled = true
	fl.unfilled--
	// Waiters on this slot got what they came for; they no longer keep
	// the rest of the flight alive.
	fl.refs -= slot.waiters
	if fl.refs == 0 && fl.unfilled > 0 {
		fl.cancel()
	}
	if err != nil && !errors.Is(err, rrr.ErrBudgetExhausted) && c.slots[key] == slot {
		delete(c.slots, key)
	}
	last := fl.unfilled == 0
	c.mu.Unlock()
	if started {
		if err != nil {
			c.metrics.failed(err)
		}
		if last {
			c.metrics.add(inFlight, -1)
			switch {
			case fl.batch:
				c.metrics.solved("batch", elapsed, fl.tid)
			case err == nil:
				c.metrics.solved(key.Algo, elapsed, fl.tid)
			}
		}
	}
	close(slot.done)
}

// Hit returns the completed successful result at key without waiting or
// computing — the allocation-free fast path a request tries before paying
// for a solver clone and a compute closure. A hit here is counted exactly
// as Do would count it; misses (absent, in-flight, or failed slots) are
// not counted because the caller falls through to Do, which does the
// accounting for whatever it finds.
func (c *Cache) Hit(key Key) (CachedResult, bool) {
	res, ok := c.Peek(key)
	if ok {
		c.metrics.add(cacheHits, 1)
	}
	return res, ok
}

// Peek reports whether key has a completed result, without computing.
func (c *Cache) Peek(key Key) (CachedResult, bool) {
	slot := c.completed(key)
	if slot == nil {
		return CachedResult{}, false
	}
	return slot.result(true), true
}

// completed returns the slot at key if its computation is done and
// succeeded, nil otherwise.
func (c *Cache) completed(key Key) *computation {
	c.mu.Lock()
	slot := c.slots[key]
	c.mu.Unlock()
	if slot == nil || !slot.succeeded() {
		return nil
	}
	return slot
}

// EncodedBody returns the pre-marshaled response body attached to the
// key's completed successful slot, counting a cache hit when present. The
// returned bytes are shared — callers must write, never mutate, them.
func (c *Cache) EncodedBody(key Key) ([]byte, bool) {
	slot := c.completed(key)
	if slot == nil {
		return nil, false
	}
	body := slot.encoded.Load()
	if body == nil {
		return nil, false
	}
	c.metrics.add(cacheHits, 1)
	return *body, true
}

// SetEncodedBody attaches a pre-marshaled response body to the key's
// completed successful slot so later hits serve bytes without
// re-encoding. The caller must not mutate body afterwards. No-op when the
// slot is absent, in flight, or failed — the body would describe nothing.
func (c *Cache) SetEncodedBody(key Key, body []byte) {
	if slot := c.completed(key); slot != nil {
		slot.encoded.Store(&body)
	}
}

// CachedEntry pairs a key with its completed result — the unit the warm
// cache persists and restores.
type CachedEntry struct {
	Key    Key
	Result CachedResult
}

// CompletedEntries returns every completed successful computation with
// its key — the warm-cache export. In-flight slots are excluded (their
// results don't exist yet) and so are cached errors: budget-exhausted
// slots are deliberately kept in memory (see fill), but persisting them
// would make a doomed key survive restarts of a possibly re-tuned daemon.
func (c *Cache) CompletedEntries() []CachedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []CachedEntry
	for key, slot := range c.slots {
		if slot.succeeded() {
			out = append(out, CachedEntry{Key: key, Result: slot.result(true)})
		}
	}
	return out
}

// CompletedKeys returns the keys of completed, successful computations
// for the named dataset at the given generation — the cached answers the
// delta maintainer classifies after a mutation. In-flight and failed
// slots are excluded: the former will complete into an unreachable
// generation, the latter have nothing worth carrying forward.
func (c *Cache) CompletedKeys(name string, gen int64) []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []Key
	for key, slot := range c.slots {
		if key.Dataset == name && key.Gen == gen && slot.succeeded() {
			keys = append(keys, key)
		}
	}
	return keys
}

// Rekey republishes the completed result at old under the new key — the
// delta maintainer's still-exact path, which carries an answer across a
// generation bump instead of letting the new generation miss. It reports
// false without touching anything when old is missing, unfinished or
// failed, or when new is already occupied (a request may have raced ahead
// and started its own computation; that flight wins).
func (c *Cache) Rekey(old, new Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.slots[old]
	if !ok || !slot.succeeded() {
		return false
	}
	if _, occupied := c.slots[new]; occupied {
		return false
	}
	c.slots[new] = slot
	delete(c.slots, old)
	return true
}

// Put seeds a completed result — the delta maintainer's repair path
// publishing a reduce-phase re-run. It reports false when the key is
// already occupied (an in-flight or completed computation wins).
func (c *Cache) Put(key Key, ids []int, stats ResultStats, elapsed time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, occupied := c.slots[key]; occupied {
		return false
	}
	slot := &computation{done: make(chan struct{}), ids: ids, stats: stats, elapsed: elapsed, filled: true}
	close(slot.done)
	c.slots[key] = slot
	return true
}

// InvalidateGeneration drops every completed result for the named dataset
// at generations up to and including gen — the post-maintenance sweep
// that clears slots no request can reach anymore — returning how many
// were dropped. In-flight computations are left to finish: their slot
// lingers, but because keys carry the generation it can never be reached
// by requests for a later one, and followers arriving before completion
// (all necessarily holding the same stale generation) still share the
// flight. The few ints it holds are the cost of not blocking on a running
// solver.
func (c *Cache) InvalidateGeneration(name string, gen int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, slot := range c.slots {
		if key.Dataset != name || key.Gen > gen {
			continue
		}
		select {
		case <-slot.done:
			delete(c.slots, key)
			dropped++
		default:
		}
	}
	return dropped
}

// InvalidateDataset drops every completed result for the named dataset at
// any generation, returning how many were dropped.
func (c *Cache) InvalidateDataset(name string) int {
	return c.InvalidateGeneration(name, math.MaxInt64)
}

// Len returns the number of slots (completed or in flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}
