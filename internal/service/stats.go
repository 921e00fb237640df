package service

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rrr/internal/trace"
)

// latencyBuckets are the upper bounds of the per-algorithm latency
// histogram, chosen to straddle the repository's measured range: 2-D runs
// finish in microseconds, MDRC on paper-scale data takes seconds.
var latencyBuckets = []time.Duration{
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	2500 * time.Millisecond,
	10 * time.Second,
}

// phaseBuckets bound the per-phase histograms. Phases run finer than whole
// solves, so the grid reaches two decades lower than latencyBuckets.
var phaseBuckets = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	50 * time.Millisecond,
	250 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// numBuckets counts the histogram slots: one per bound plus overflow.
const numBuckets = 8

// histogram is a fixed-bucket latency histogram; the last index is the
// overflow bucket. bounds holds numBuckets-1 entries. Each bucket
// additionally retains its latest traced observation as an exemplar — the
// OpenMetrics "jump from a bucket to the trace that put a count there"
// link.
type histogram struct {
	counts    [numBuckets]atomic.Int64
	sum       atomic.Int64 // nanoseconds
	total     atomic.Int64
	bounds    []time.Duration
	exemplars [numBuckets]atomic.Pointer[exemplar]
}

// exemplar is one traced observation pinned to its histogram bucket,
// rendered only on the OpenMetrics surface (the classic text format has
// no exemplar syntax).
type exemplar struct {
	traceID string
	value   float64 // seconds — always within the bucket's le bound
	atNanos int64   // unix nanoseconds of the observation
}

// observe records one duration. A non-zero trace ID additionally pins
// (trace_id, value, timestamp) to the observation's native bucket as its
// exemplar; untraced observations skip the store entirely, so the
// zero-alloc paths never pay for the exemplar's string rendering.
func (h *histogram) observe(d time.Duration, tid trace.TraceID) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
	if !tid.IsZero() {
		h.exemplars[i].Store(&exemplar{traceID: tid.String(), value: d.Seconds(), atNanos: time.Now().UnixNano()})
	}
}

// HistogramSnapshot is the JSON-friendly view of one algorithm's latencies.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	MeanMS  float64          `json:"mean_ms"`
	Buckets map[string]int64 `json:"buckets"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make(map[string]int64, len(h.bounds)+1)}
	for i := range h.counts {
		label := "+inf"
		if i < len(h.bounds) {
			label = "le_" + h.bounds[i].String()
		}
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets[label] = n
		}
	}
	s.Count = h.total.Load()
	if s.Count > 0 {
		s.MeanMS = float64(h.sum.Load()) / float64(s.Count) / 1e6
	}
	return s
}

// counter names one entry of counterTable, and the slot of Metrics.counters
// holding its value.
type counter int

const (
	cacheHits counter = iota
	cacheMisses
	inFlight
	failures
	canceled
	batches
	batchItems
	coalescedJoins
	deltaMutations
	deltaMutatedTuples
	deltaRevalidated
	deltaRepaired
	deltaRecomputed
	walAppends
	walBytes
	replayedBatches
	warmedAnswers
	watchSubscribers
	watchEvents
	watchDropped
	watchResumes
	traceSampled
	traceUnsampled
	exportSpans
	exportBatches
	exportRetries
	exportFailures
	exportDropped
	numCounters
)

// counterDesc defines one counter for all three metric surfaces: its
// Prometheus sample name, type and help text, and the Snapshot leaf that
// carries it in /v1/stats. The exposition emits counterTable in order.
type counterDesc struct {
	name string
	typ  string // "counter" (monotone) or "gauge"
	help string
	leaf func(*Snapshot) *int64
}

var counterTable = [numCounters]counterDesc{
	cacheHits: {"rrrd_cache_hits_total", "counter", "Requests served from a completed or shared computation.",
		func(s *Snapshot) *int64 { return &s.CacheHits }},
	cacheMisses: {"rrrd_cache_misses_total", "counter", "Requests that started a new computation.",
		func(s *Snapshot) *int64 { return &s.CacheMisses }},
	inFlight: {"rrrd_inflight_computations", "gauge", "Computations currently running.",
		func(s *Snapshot) *int64 { return &s.InFlight }},
	failures: {"rrrd_failures_total", "counter", "Computations that failed (excluding cancellations).",
		func(s *Snapshot) *int64 { return &s.Failures }},
	canceled: {"rrrd_canceled_total", "counter", "Computations canceled by waiter abandonment or deadlines.",
		func(s *Snapshot) *int64 { return &s.Canceled }},
	batches: {"rrrd_batches_total", "counter", "Batch computations started.",
		func(s *Snapshot) *int64 { return &s.Batches }},
	batchItems: {"rrrd_batch_items_total", "counter", "Keys claimed by batch computations.",
		func(s *Snapshot) *int64 { return &s.BatchItems }},
	coalescedJoins: {"rrrd_coalesced_joins_total", "counter", "Requests that joined a key an in-flight batch claimed.",
		func(s *Snapshot) *int64 { return &s.CoalescedJoins }},
	deltaMutations: {"rrrd_delta_mutations_total", "counter", "Mutation batches applied to registered datasets.",
		func(s *Snapshot) *int64 { return &s.Delta.Mutations }},
	deltaMutatedTuples: {"rrrd_delta_mutated_tuples_total", "counter", "Tuples appended or deleted by mutation batches.",
		func(s *Snapshot) *int64 { return &s.Delta.MutatedTuples }},
	deltaRevalidated: {"rrrd_delta_revalidated_total", "counter", "Cached answers proven still exact across a mutation and re-keyed.",
		func(s *Snapshot) *int64 { return &s.Delta.Revalidated }},
	deltaRepaired: {"rrrd_delta_repaired_total", "counter", "Cached answers repaired by a reduce-phase re-run on the patched pool.",
		func(s *Snapshot) *int64 { return &s.Delta.Repaired }},
	deltaRecomputed: {"rrrd_delta_recomputed_total", "counter", "Cached answers invalidated by a mutation for lazy full recompute.",
		func(s *Snapshot) *int64 { return &s.Delta.Recomputed }},
	walAppends: {"rrrd_wal_appends_total", "counter", "Mutation batches made durable in the write-ahead log.",
		func(s *Snapshot) *int64 { return &s.Persist.WALAppends }},
	walBytes: {"rrrd_wal_bytes_total", "counter", "Bytes appended to the write-ahead log.",
		func(s *Snapshot) *int64 { return &s.Persist.WALBytes }},
	replayedBatches: {"rrrd_replayed_batches_total", "counter", "WAL batches re-applied during boot recovery.",
		func(s *Snapshot) *int64 { return &s.Persist.ReplayedBatches }},
	warmedAnswers: {"rrrd_warmed_answers_total", "counter", "Cached answers readmitted from the warm-cache file at boot.",
		func(s *Snapshot) *int64 { return &s.Persist.WarmedAnswers }},
	watchSubscribers: {"rrrd_watch_subscribers", "gauge", "Watch streams currently open.",
		func(s *Snapshot) *int64 { return &s.Watch.Subscribers }},
	watchEvents: {"rrrd_watch_events_total", "counter", "Events enqueued to watch subscribers (one publish to N subscribers counts N).",
		func(s *Snapshot) *int64 { return &s.Watch.Events }},
	watchDropped: {"rrrd_watch_dropped_total", "counter", "Watch subscribers dropped after overflowing their event ring.",
		func(s *Snapshot) *int64 { return &s.Watch.Dropped }},
	watchResumes: {"rrrd_watch_resumes_total", "counter", "Watch reconnects resumed by journal replay instead of a fresh snapshot.",
		func(s *Snapshot) *int64 { return &s.Watch.Resumes }},
	traceSampled: {"rrrd_trace_sampled_total", "counter", "Head-sampling decisions that recorded the trace.",
		func(s *Snapshot) *int64 { return &s.Trace.Sampled }},
	traceUnsampled: {"rrrd_trace_unsampled_total", "counter", "Head-sampling decisions that declined the trace.",
		func(s *Snapshot) *int64 { return &s.Trace.Unsampled }},
	exportSpans: {"rrrd_trace_export_spans_total", "counter", "Spans delivered to the OTLP collector in accepted batches.",
		func(s *Snapshot) *int64 { return &s.Trace.ExportedSpans }},
	exportBatches: {"rrrd_trace_export_batches_total", "counter", "Batch POSTs the OTLP collector accepted.",
		func(s *Snapshot) *int64 { return &s.Trace.ExportedBatches }},
	exportRetries: {"rrrd_trace_export_retries_total", "counter", "Batch POSTs re-attempted after retryable collector failures.",
		func(s *Snapshot) *int64 { return &s.Trace.ExportRetries }},
	exportFailures: {"rrrd_trace_export_failures_total", "counter", "Batches abandoned after their final delivery attempt.",
		func(s *Snapshot) *int64 { return &s.Trace.ExportFailures }},
	exportDropped: {"rrrd_trace_export_dropped_total", "counter", "Traces dropped instead of blocking a request on a slow or down collector.",
		func(s *Snapshot) *int64 { return &s.Trace.ExportDropped }},
}

// Metrics aggregates the daemon's operational counters (counterTable),
// per-algorithm and per-phase latency histograms, and the few derived
// values the surfaces compute on read. All methods are safe for concurrent
// use and safe on a nil receiver (components constructed without metrics
// just don't report).
type Metrics struct {
	counters [numCounters]atomic.Int64
	// snapshotUnixNano is when the last snapshot was written (or, right
	// after boot, the mtime of the one that was read); 0 = none yet.
	snapshotUnixNano atomic.Int64

	mu        sync.Mutex
	latencies map[string]*histogram
	phases    map[string]*histogram

	start time.Time
}

// NewMetrics returns zeroed metrics with the uptime clock started.
func NewMetrics() *Metrics {
	return &Metrics{
		latencies: make(map[string]*histogram),
		phases:    make(map[string]*histogram),
		start:     time.Now(),
	}
}

// add moves counter c by n.
func (m *Metrics) add(c counter, n int) {
	if m != nil {
		m.counters[c].Add(int64(n))
	}
}

// histogramFor returns hs[name], creating it over bounds on first use.
func (m *Metrics) histogramFor(hs map[string]*histogram, name string, bounds []time.Duration) *histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := hs[name]
	if !ok {
		h = &histogram{bounds: bounds}
		hs[name] = h
	}
	return h
}

// namedHistogram is one entry of a histogram map, as sortedHistograms
// returns it.
type namedHistogram struct {
	name string
	h    *histogram
}

// sortedHistograms lists hs by name, so every surface renders it in a
// deterministic order. The lock covers only the map read: callers may
// then write to a slow client while solves keep observing, because the
// histogram fields themselves are atomics.
func (m *Metrics) sortedHistograms(hs map[string]*histogram) []namedHistogram {
	m.mu.Lock()
	out := make([]namedHistogram, 0, len(hs))
	for name, h := range hs {
		out = append(out, namedHistogram{name, h})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// PhaseObserve records one solve-phase duration — the trace recorder's
// sink (trace.PhaseSink), so every ended span feeds the
// rrrd_solve_phase_seconds histogram of its phase, carrying its trace
// ID as the bucket's exemplar. Called outside the recorder's lock;
// nil-safe like every Metrics method.
func (m *Metrics) PhaseObserve(phase string, d time.Duration, tid trace.TraceID) {
	if m != nil {
		m.histogramFor(m.phases, phase, phaseBuckets).observe(d, tid)
	}
}

// solved records one finished computation's latency under algo. A
// non-zero tid — the trace of the request that started the computation —
// becomes the latency bucket's exemplar on the OpenMetrics surface.
func (m *Metrics) solved(algo string, elapsed time.Duration, tid trace.TraceID) {
	if m != nil {
		m.histogramFor(m.latencies, algo, latencyBuckets).observe(elapsed, tid)
	}
}

// failed counts one failed computation or batch item. Cancellations
// (client gone, deadline hit) are operationally distinct from solver
// failures: one is demand disappearing, the other is the system
// misbehaving.
func (m *Metrics) failed(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		m.add(canceled, 1)
	} else {
		m.add(failures, 1)
	}
}

// The four methods below implement watch.Counters, making *Metrics the
// hub's telemetry sink directly — no adapter layer to drift out of sync.

// WatchSubscribers moves the live watch-stream gauge by delta.
func (m *Metrics) WatchSubscribers(delta int) { m.add(watchSubscribers, delta) }

// WatchEvents records n events enqueued to watch subscribers (fan-out
// volume: one publish to N subscribers counts N).
func (m *Metrics) WatchEvents(n int) { m.add(watchEvents, n) }

// WatchDropped records one subscriber dropped by ring overflow.
func (m *Metrics) WatchDropped() { m.add(watchDropped, 1) }

// WatchResumed records one reconnect served by journal replay instead of
// a fresh snapshot.
func (m *Metrics) WatchResumed() { m.add(watchResumes, 1) }

// The five methods below implement export.Counters, making *Metrics the
// OTLP exporter's telemetry sink directly — the watch.Counters pattern.

// ExportedSpans counts spans delivered to the collector in accepted
// batches.
func (m *Metrics) ExportedSpans(n int) { m.add(exportSpans, n) }

// ExportBatches counts accepted batch POSTs to the collector.
func (m *Metrics) ExportBatches(n int) { m.add(exportBatches, n) }

// ExportRetries counts re-attempted batch POSTs after retryable
// failures.
func (m *Metrics) ExportRetries(n int) { m.add(exportRetries, n) }

// ExportFailures counts batches abandoned after their final attempt.
func (m *Metrics) ExportFailures(n int) { m.add(exportFailures, n) }

// ExportDroppedTraces counts traces that never reached the collector —
// queue overflow under a down or slow collector, or membership in an
// abandoned batch. This moving is the exporter's drop-never-block
// contract made visible.
func (m *Metrics) ExportDroppedTraces(n int) { m.add(exportDropped, n) }

// snapshotAt records when the registry snapshot was last written or read.
func (m *Metrics) snapshotAt(t time.Time) {
	if m != nil {
		m.snapshotUnixNano.Store(t.UnixNano())
	}
}

// snapshotAge returns seconds since the last snapshot, -1 when none.
func (m *Metrics) snapshotAge() float64 {
	ns := m.snapshotUnixNano.Load()
	if ns == 0 {
		return -1
	}
	return time.Since(time.Unix(0, ns)).Seconds()
}

// DeltaSnapshot summarizes the delta engine's activity: mutation batches
// applied, tuples they touched, and what happened to the cached answers
// they crossed — revalidated (proven still exact, re-keyed to the new
// generation), repaired (reduce-phase re-run on the patched pool), or
// recomputed (invalidated; the full solve happens lazily on the next
// request).
type DeltaSnapshot struct {
	Mutations     int64 `json:"mutations"`
	MutatedTuples int64 `json:"mutated_tuples"`
	Revalidated   int64 `json:"revalidated"`
	Repaired      int64 `json:"repaired"`
	Recomputed    int64 `json:"recomputed"`
}

// PersistSnapshot summarizes the durability layer: WAL appends and bytes
// since boot, batches replayed and answers warmed during the last
// recovery, and how stale the on-disk snapshot is (-1 when the daemon
// runs memory-only or has not snapshotted yet).
type PersistSnapshot struct {
	WALAppends         int64   `json:"wal_appends"`
	WALBytes           int64   `json:"wal_bytes"`
	ReplayedBatches    int64   `json:"replayed_batches"`
	WarmedAnswers      int64   `json:"warmed_answers"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
}

// WatchSnapshot summarizes the live-update push subsystem: streams open
// right now, events fanned out to subscribers, subscribers dropped for
// falling behind their ring, and reconnects resumed by journal replay.
type WatchSnapshot struct {
	Subscribers int64 `json:"subscribers"`
	Events      int64 `json:"events"`
	Dropped     int64 `json:"dropped"`
	Resumes     int64 `json:"resumes"`
}

// TraceSnapshot summarizes the tracing pipeline: head-sampling
// decisions each way, and the OTLP exporter's delivery ledger — spans
// and batches accepted by the collector, retried and abandoned POSTs,
// and traces dropped to keep export off the request path.
type TraceSnapshot struct {
	Sampled         int64 `json:"sampled"`
	Unsampled       int64 `json:"unsampled"`
	ExportedSpans   int64 `json:"exported_spans"`
	ExportedBatches int64 `json:"exported_batches"`
	ExportRetries   int64 `json:"export_retries"`
	ExportFailures  int64 `json:"export_failures"`
	ExportDropped   int64 `json:"export_dropped"`
}

// RuntimeSnapshot surfaces the Go runtime's health gauges: live
// goroutines, heap bytes in use, and cumulative GC stop-the-world pause
// time — the three numbers that distinguish "the solver is slow" from
// "the process is drowning".
type RuntimeSnapshot struct {
	Goroutines          int64   `json:"goroutines"`
	HeapAllocBytes      int64   `json:"heap_alloc_bytes"`
	GCPauseSecondsTotal float64 `json:"gc_pause_seconds_total"`
}

func readRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSnapshot{
		Goroutines:          int64(runtime.NumGoroutine()),
		HeapAllocBytes:      int64(ms.HeapAlloc),
		GCPauseSecondsTotal: float64(ms.PauseTotalNs) / 1e9,
	}
}

// Snapshot is the /stats payload.
type Snapshot struct {
	UptimeSeconds  float64                      `json:"uptime_seconds"`
	CacheHits      int64                        `json:"cache_hits"`
	CacheMisses    int64                        `json:"cache_misses"`
	InFlight       int64                        `json:"in_flight"`
	Failures       int64                        `json:"failures"`
	Canceled       int64                        `json:"canceled"`
	Computations   int64                        `json:"computations"`
	Batches        int64                        `json:"batches"`
	BatchItems     int64                        `json:"batch_items"`
	CoalescedJoins int64                        `json:"coalesced_joins"`
	Delta          DeltaSnapshot                `json:"delta"`
	Persist        PersistSnapshot              `json:"persist"`
	Watch          WatchSnapshot                `json:"watch"`
	Trace          TraceSnapshot                `json:"trace"`
	Runtime        RuntimeSnapshot              `json:"runtime"`
	Latencies      map[string]HistogramSnapshot `json:"latency_by_algorithm"`
	Phases         map[string]HistogramSnapshot `json:"latency_by_phase"`
}

// Snapshot captures the current counters. Counters are read individually
// without a global lock, so a snapshot taken mid-flight may be off by a
// request — fine for an operational endpoint.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Runtime:       readRuntime(),
		Latencies:     make(map[string]HistogramSnapshot),
		Phases:        make(map[string]HistogramSnapshot),
	}
	for c := range counterTable {
		*counterTable[c].leaf(&s) = m.counters[c].Load()
	}
	s.Persist.SnapshotAgeSeconds = m.snapshotAge()
	for _, e := range m.sortedHistograms(m.latencies) {
		snap := e.h.snapshot()
		s.Computations += snap.Count
		s.Latencies[e.name] = snap
	}
	for _, e := range m.sortedHistograms(m.phases) {
		s.Phases[e.name] = e.h.snapshot()
	}
	return s
}
