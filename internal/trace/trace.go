// Package trace is the repository's request-scoped tracing subsystem
// (DESIGN.md §12): a bounded in-process span recorder threaded through the
// solver and serving layers via context, W3C traceparent ingestion and
// propagation for the /v1 surface, and a fixed-size ring of recently
// finished traces for after-the-fact inspection (GET /v1/traces).
//
// The package is stdlib-only and sits at the bottom of the dependency
// graph — the solver, the shard extractors and the service all import it, it
// imports nothing of theirs.
//
// Zero-cost when absent. Every hook is a nil-checked method on a
// *Recorder fished out of the context: FromContext on a context without a
// recorder returns nil without allocating (context.Value with a zero-size
// key neither boxes nor escapes), and every Recorder method is a no-op on
// a nil receiver. The instrumented hot paths — SolveInto, RevalidateInto,
// the cached HTTP hit — therefore cost 0 allocs/op exactly as before when
// no trace is attached, which the AllocsPerRun contracts and the
// cmd/benchgate exact gate enforce. A recorder only exists for requests
// that carry a traceparent header or reach the solve path.
package trace

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// SpanID indexes a span within its trace's recorder. The zero trace ID
// problem does not arise: IDs are positions, and NoSpan marks "no parent"
// and every operation on an absent recorder.
type SpanID int32

// NoSpan is the nil span: the root's parent, and the result of starting a
// span on a nil or saturated recorder. Ending it is a no-op.
const NoSpan SpanID = -1

// maxSpans bounds one trace's span count. A request records a handful of
// phase spans, plus one per repaired rank target of a mutation, so the
// bound is generous; beyond it spans are counted as dropped, never
// recorded, and the trace stays intact up to the cutoff.
const maxSpans = 512

// Span is one timed phase of a request. Start and End are offsets from
// the trace's start, so a span never needs a wall clock of its own and
// the whole trace serializes compactly.
type Span struct {
	ID     SpanID
	Parent SpanID
	// Name is the phase: "request", "sweep", "sample", "recurse",
	// "cache_wait", "delta_repair", "map_shard", "publish", "wal_append",
	// "reval_pool" (see DESIGN.md §12 for the grammar).
	Name string
	// Shard is the shard index of a "map_shard" span (a candidate
	// extraction's per-shard task) or the rank target of a "delta_repair"
	// span, -1 otherwise.
	Shard int
	Start time.Duration
	// End is zero while the span is open (and stays zero for spans never
	// ended — e.g. cut off by a request abandoning its solve).
	End time.Duration
}

// Duration is the span's measured length, zero while open.
func (s Span) Duration() time.Duration {
	if s.End == 0 {
		return 0
	}
	return s.End - s.Start
}

// TraceID is the W3C 16-byte trace identifier.
type TraceID [16]byte

// IsZero reports the invalid all-zero ID (forbidden on the wire).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// PhaseSink receives every ended span's (name, duration, trace ID) — the
// hook that feeds the serving layer's per-phase Prometheus histograms
// from the same instrumentation points the trace records, so the two
// can't disagree. The trace ID is what lets the histogram attach an
// OpenMetrics exemplar pointing back at the trace the observation came
// from.
type PhaseSink interface {
	PhaseObserve(phase string, d time.Duration, id TraceID)
}

// Recorder accumulates one trace's spans. It is safe for concurrent use —
// extraction workers and detached cache computations append spans from
// their own goroutines — and every method is a no-op on a nil receiver,
// which is what keeps untraced paths free.
//
// A recorder is born with its root "request" span already open (span 0);
// the Tracer that issued it closes the root and snapshots the spans at
// Finish. Spans started after Finish are counted as dropped: a detached
// computation outliving the request that traced it writes into the void,
// never into another request's trace (recorders are not recycled).
type Recorder struct {
	traceID TraceID
	// wireID is this trace's own span ID on the wire (the parent-id field
	// of the propagated traceparent); remote is the caller's, zero when
	// the trace originated locally.
	wireID [8]byte
	remote [8]byte
	flags  byte
	start  time.Time
	sink   PhaseSink

	mu       sync.Mutex
	spans    []Span
	dropped  int
	finished bool
	errMsg   string
}

// Root returns the root span's ID (always 0 on a live recorder).
func (r *Recorder) Root() SpanID {
	if r == nil {
		return NoSpan
	}
	return 0
}

// TraceID returns the trace's identifier (zero on nil).
func (r *Recorder) TraceID() TraceID {
	if r == nil {
		return TraceID{}
	}
	return r.traceID
}

// Traceparent renders the outgoing W3C traceparent header value:
// version 00, this trace's ID, this process's root span on the wire, and
// the sampled flag (always set — a recorded trace is a sampled trace).
func (r *Recorder) Traceparent() string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("00-%x-%x-%02x", r.traceID[:], r.wireID[:], r.flags|0x01)
}

// Start opens a span under parent, returning its ID. On a nil recorder,
// after Finish, or past the span bound it records nothing and returns
// NoSpan (saturation and post-finish starts count as dropped).
func (r *Recorder) Start(name string, parent SpanID) SpanID {
	return r.start2(name, parent, -1)
}

// StartShard is Start for a per-shard map task, carrying the shard index.
func (r *Recorder) StartShard(name string, parent SpanID, shard int) SpanID {
	return r.start2(name, parent, shard)
}

func (r *Recorder) start2(name string, parent SpanID, shard int) SpanID {
	if r == nil {
		return NoSpan
	}
	now := time.Now()
	r.mu.Lock()
	if r.finished || len(r.spans) >= maxSpans {
		r.dropped++
		r.mu.Unlock()
		return NoSpan
	}
	id := SpanID(len(r.spans))
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Shard: shard, Start: now.Sub(r.start)})
	r.mu.Unlock()
	return id
}

// End closes the span, feeding its duration to the phase sink. No-op on a
// nil recorder, NoSpan, an unknown ID, an already-ended span, or after
// Finish.
func (r *Recorder) End(id SpanID) {
	if r == nil || id < 0 {
		return
	}
	now := time.Now()
	var (
		name string
		dur  time.Duration
		obs  bool
	)
	r.mu.Lock()
	if !r.finished && int(id) < len(r.spans) && r.spans[id].End == 0 {
		sp := &r.spans[id]
		sp.End = now.Sub(r.start)
		if sp.End == sp.Start {
			// Distinguish "ended instantly" from "never ended": End==Start
			// would read as open. One nanosecond of rounding is below the
			// clock's resolution anyway.
			sp.End++
		}
		name, dur, obs = sp.Name, sp.End-sp.Start, r.sink != nil
	}
	r.mu.Unlock()
	if obs {
		// Outside the recorder's lock: the sink takes its own (the metrics
		// histogram map), and nested lock orders are how deadlocks start.
		r.sink.PhaseObserve(name, dur, r.traceID)
	}
}

// MarkError flags the trace as errored with err's message (first writer
// wins; nil err and nil receiver are no-ops). An errored trace is always
// retained and exported — tail retention — even when head sampling
// declined it, and the exported root span carries OTLP status ERROR.
func (r *Recorder) MarkError(err error) {
	if r == nil || err == nil {
		return
	}
	r.mu.Lock()
	if !r.finished && r.errMsg == "" {
		r.errMsg = err.Error()
	}
	r.mu.Unlock()
}

// Trace is a finished, immutable snapshot of one request's spans — the
// unit the ring retains, /v1/traces serves, and the OTLP exporter ships.
type Trace struct {
	ID    string
	Start time.Time
	// Duration is the root span's length.
	Duration time.Duration
	// RemoteParent is the wire parent-id of the inbound traceparent,
	// empty for locally originated traces.
	RemoteParent string
	Spans        []Span
	Dropped      int
	// Wire is this process's root span ID on the wire — the parent-id
	// the trace propagated downstream, and the OTLP exporter's root
	// spanId (child span IDs are derived from it deterministically).
	Wire [8]byte
	// Err is the error message of a trace marked via MarkError, empty
	// for a trace that finished cleanly.
	Err string
}

// ringSize bounds the tracer's retention: the newest ringSize finished
// traces are inspectable, older ones fall off. At ~100 bytes a span the
// worst case is a few MB — bounded regardless of traffic.
const ringSize = 256

// Tracer issues recorders and retains finished traces. One Tracer serves
// one HTTP server; its ring is the /v1/traces backing store.
type Tracer struct {
	sink PhaseSink

	mu    sync.Mutex
	ring  [ringSize]*Trace
	next  int
	total int
}

// NewTracer builds a tracer whose recorders feed sink (may be nil) on
// every span end.
func NewTracer(sink PhaseSink) *Tracer {
	return &Tracer{sink: sink}
}

// Start issues a recorder continuing an inbound trace: the caller's trace
// ID and wire parent, a fresh wire span ID for this process, the root
// "request" span already open.
func (t *Tracer) Start(id TraceID, remoteParent [8]byte, flags byte) *Recorder {
	return t.newRecorder(id, remoteParent, flags)
}

// StartLocal issues a recorder for a trace originating here, with a
// freshly generated trace ID.
func (t *Tracer) StartLocal() *Recorder {
	return t.newRecorder(randomTraceID(), [8]byte{}, 0x01)
}

func (t *Tracer) newRecorder(id TraceID, remote [8]byte, flags byte) *Recorder {
	r := &Recorder{
		traceID: id,
		remote:  remote,
		flags:   flags,
		start:   time.Now(),
		sink:    t.sink,
		spans:   make([]Span, 0, 16),
	}
	randomBytes(r.wireID[:])
	r.spans = append(r.spans, Span{ID: 0, Parent: NoSpan, Name: "request", Shard: -1})
	return r
}

// Finish closes the recorder's root span, snapshots the trace, pushes it
// onto the ring, and returns it (for the slow-request log). The recorder
// is dead afterwards: late spans from still-running detached work are
// dropped. Nil-safe. Equivalent to Seal followed by Retain — callers
// that gate retention on a sampling decision use the two halves.
func (t *Tracer) Finish(rec *Recorder) *Trace {
	tr := t.Seal(rec)
	t.Retain(tr)
	return tr
}

// Seal closes the recorder's root span and snapshots the trace WITHOUT
// retaining it: the caller decides — head-sampling decision composed
// with tail retention — whether the snapshot enters the ring (Retain),
// ships to the exporter, both, or neither. Nil-safe.
func (t *Tracer) Seal(rec *Recorder) *Trace {
	if rec == nil {
		return nil
	}
	rec.End(0)
	rec.mu.Lock()
	rec.finished = true
	spans := make([]Span, len(rec.spans))
	copy(spans, rec.spans)
	dropped := rec.dropped
	errMsg := rec.errMsg
	rec.mu.Unlock()

	tr := &Trace{
		ID:       rec.traceID.String(),
		Start:    rec.start,
		Duration: spans[0].Duration(),
		Spans:    spans,
		Dropped:  dropped,
		Wire:     rec.wireID,
		Err:      errMsg,
	}
	if rec.remote != ([8]byte{}) {
		tr.RemoteParent = hex.EncodeToString(rec.remote[:])
	}
	return tr
}

// Retain pushes a sealed trace onto the ring (and the Total count).
// Nil-safe, so callers compose Seal → decide → Retain without branching.
func (t *Tracer) Retain(tr *Trace) {
	if tr == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next = (t.next + 1) % ringSize
	t.total++
	t.mu.Unlock()
}

// Synthesize builds a minimal one-span trace after the fact — the tail
// path for a request whose inbound traceparent was head-sampled out (so
// nothing was recorded) but that then ran slow enough to matter. The
// result carries the caller's trace identity and a fresh wire ID, with
// just the root "request" span covering the measured duration; it never
// feeds the phase sink (the request was deliberately unobserved).
func Synthesize(id TraceID, remoteParent [8]byte, start time.Time, d time.Duration) *Trace {
	if d <= 0 {
		d = 1
	}
	tr := &Trace{
		ID:       id.String(),
		Start:    start,
		Duration: d,
		Spans:    []Span{{ID: 0, Parent: NoSpan, Name: "request", Shard: -1, End: d}},
	}
	if remoteParent != ([8]byte{}) {
		tr.RemoteParent = hex.EncodeToString(remoteParent[:])
	}
	randomBytes(tr.Wire[:])
	return tr
}

// Recent returns up to n finished traces, newest first.
func (t *Tracer) Recent(n int) []*Trace {
	if n <= 0 || n > ringSize {
		n = ringSize
	}
	out := make([]*Trace, 0, n)
	t.mu.Lock()
	for i := 1; i <= ringSize && len(out) < n; i++ {
		tr := t.ring[(t.next-i+ringSize)%ringSize]
		if tr == nil {
			break
		}
		out = append(out, tr)
	}
	t.mu.Unlock()
	return out
}

// Lookup returns the newest retained trace with the given ID.
func (t *Tracer) Lookup(id string) (*Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 1; i <= ringSize; i++ {
		tr := t.ring[(t.next-i+ringSize)%ringSize]
		if tr == nil {
			break
		}
		if tr.ID == id {
			return tr, true
		}
	}
	return nil, false
}

// Total returns how many traces have been finished since construction
// (including ones the ring has since evicted).
func (t *Tracer) Total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Tree renders the trace's span tree as an indented multi-line string —
// the slow-request log's payload and a debugging aid.
func (tr *Trace) Tree() string {
	if tr == nil {
		return ""
	}
	children := make(map[SpanID][]SpanID)
	for _, sp := range tr.Spans {
		if sp.ID != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp.ID)
		}
	}
	var b strings.Builder
	var walk func(id SpanID, depth int)
	walk = func(id SpanID, depth int) {
		sp := tr.Spans[id]
		b.WriteString(strings.Repeat("  ", depth))
		if sp.Shard >= 0 {
			fmt.Fprintf(&b, "%s[%d]", sp.Name, sp.Shard)
		} else {
			b.WriteString(sp.Name)
		}
		if d := sp.Duration(); d > 0 {
			fmt.Fprintf(&b, " %v", d.Round(time.Microsecond))
		} else {
			b.WriteString(" (open)")
		}
		fmt.Fprintf(&b, " @%v\n", sp.Start.Round(time.Microsecond))
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	walk(0, 0)
	if tr.Dropped > 0 {
		fmt.Fprintf(&b, "(+%d spans dropped)\n", tr.Dropped)
	}
	return b.String()
}

// randomTraceID draws a non-zero 16-byte trace ID. IDs need uniqueness,
// not unpredictability; math/rand/v2's global generator is per-process
// seeded and lock-free.
func randomTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		randomBytes(id[:])
	}
	return id
}

func randomBytes(b []byte) {
	for len(b) >= 8 {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		b = b[8:]
	}
	if len(b) > 0 {
		v := rand.Uint64()
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}
