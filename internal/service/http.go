package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"rrr"
	"rrr/internal/delta"
	"rrr/internal/trace"
	"rrr/internal/watch"
)

// maxUploadBytes bounds POST /datasets bodies (CSV uploads included).
const maxUploadBytes = 64 << 20

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response. No client sees it, but access logs and
// metrics distinguish "they hung up" from a real failure.
const statusClientClosedRequest = 499

// Server adapts a Service to JSON-over-HTTP. Mount it directly or via
// Handler().
//
// The API is versioned under /v1; unversioned paths are not routed.
//
// Endpoints:
//
//	POST /v1/datasets        register a dataset (JSON spec: generator or CSV)
//	GET  /v1/datasets        list registered datasets with metadata
//	DELETE /v1/datasets/{name}  unregister + invalidate cache
//	POST /v1/datasets/{name}/append  append rows (delta engine; rrrd -delta)
//	POST /v1/datasets/{name}/delete  delete tuples by ID (delta engine)
//	GET  /v1/representative?dataset=&k=&algo=   cached representative
//	POST /v1/batch           many queries, one shared computation
//	GET  /v1/rank?dataset=&weights=&id=|ids=    rank / rank-regret probe
//	GET  /v1/regret?dataset=&ids=&samples=      sampled worst-case rank-regret
//	GET  /v1/watch?dataset=&k=&algo=            SSE live-update stream (rrrd -watch)
//	GET  /v1/healthz         liveness
//	GET  /v1/stats           cache, latency and subsystem counters (JSON)
//	GET  /v1/metrics         the same counters in Prometheus text format
//	                         (?format=openmetrics adds trace exemplars)
//	GET  /v1/traces?limit=N  recent retained traces, newest first
//	GET  /v1/traces/{id}     one trace's span list and rendered tree
//
// Errors are JSON envelopes {"error": ..., "kind": ...} where kind is one
// of "bad_request", "not_found", "conflict", "canceled",
// "budget_exhausted", "infeasible", "unavailable", or "internal".
type Server struct {
	svc     *Service
	mux     *http.ServeMux
	timeout time.Duration

	// tracer records request-scoped span trees (DESIGN.md §12). Traces
	// exist only for requests that ask (a traceparent header) or that miss
	// the cache into a solve; the cached hot path stays allocation-free.
	tracer *trace.Tracer
	// sampler is the head-sampling policy (DESIGN.md §13): consulted once
	// per trace-worthy request, before any recorder exists, so a declined
	// trace costs zero allocations. Nil keeps every trace.
	sampler trace.Sampler
	// exporter receives every retained trace. Nil means no export.
	exporter SpanExporter
	// slowThreshold, when positive, makes every finished trace at or over
	// it dump its span tree to slowLog — the -slow-threshold flag. It also
	// drives tail retention: slow traces are kept and exported even when
	// the head sampler declined them.
	slowThreshold time.Duration
	slowLog       *slog.Logger
}

// SpanExporter is where retained traces go after sealing — in production
// an *export.Exporter, whose Enqueue never blocks. The interface keeps
// the HTTP layer decoupled from the OTLP wire code (and swappable in
// tests). Implementations must not block and must tolerate concurrent
// calls.
type SpanExporter interface {
	Enqueue(tr *trace.Trace)
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithRequestTimeout bounds every request's context: a representative
// request whose computation (or wait for a shared computation) exceeds d
// fails with 504 and kind "canceled". Zero means no per-request deadline.
// This is the HTTP face of the daemon's -request-timeout flag.
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.timeout = d }
}

// WithSlowRequestLog makes the server dump the span tree of any traced
// request whose total duration reaches threshold, to logger (nil =
// slog.Default()). This is the HTTP face of the daemon's -slow-threshold
// flag; zero disables the dump.
func WithSlowRequestLog(threshold time.Duration, logger *slog.Logger) ServerOption {
	return func(s *Server) {
		s.slowThreshold = threshold
		if logger == nil {
			logger = slog.Default()
		}
		s.slowLog = logger
	}
}

// WithSampler installs the head-sampling policy (rrrd -trace-sample /
// -trace-rate). The default (nil) keeps every trace. Whatever the policy
// decides, slow and errored traces are still retained and exported (tail
// retention) — sampling bounds the cost of the healthy majority, not
// visibility into the outliers.
func WithSampler(sampler trace.Sampler) ServerOption {
	return func(s *Server) { s.sampler = sampler }
}

// WithSpanExporter wires the sink that receives every retained trace
// (rrrd -otlp-endpoint). The exporter must never block: the server calls
// Enqueue synchronously on the request path.
func WithSpanExporter(e SpanExporter) ServerOption {
	return func(s *Server) { s.exporter = e }
}

// NewServer builds the HTTP adapter over svc.
func NewServer(svc *Service, opts ...ServerOption) *Server {
	// The metrics sink makes every ended span also feed its phase's
	// rrrd_solve_phase_seconds histogram — one instrumentation point, two
	// surfaces.
	s := &Server{svc: svc, mux: http.NewServeMux(), tracer: trace.NewTracer(svc.Metrics())}
	for _, o := range opts {
		if o != nil {
			o(s)
		}
	}
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegister)
	s.mux.HandleFunc("GET /v1/datasets", s.handleList)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleRemove)
	s.mux.HandleFunc("POST /v1/datasets/{name}/append", s.handleAppend)
	s.mux.HandleFunc("POST /v1/datasets/{name}/delete", s.handleDelete)
	s.mux.HandleFunc("GET /v1/representative", s.handleRepresentative)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/rank", s.handleRank)
	s.mux.HandleFunc("GET /v1/regret", s.handleRegret)
	s.mux.HandleFunc("GET /v1/watch", s.handleWatch)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceByID)
	return s
}

// ServeHTTP implements http.Handler, applying the per-request deadline
// before dispatch so every handler (and the solves behind them) inherits
// it. Streaming paths are exempt: a watch connection is *supposed* to
// outlive any per-request budget.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// W3C trace ingestion. The header is probed by direct map lookup —
	// Header.Get would canonicalize the key and allocate, and the common
	// case (no header) must stay free for the zero-alloc hot path.
	if vals := r.Header["Traceparent"]; len(vals) > 0 {
		if id, remote, flags, ok := trace.ParseTraceparent(vals[0]); ok {
			if s.sample(id) {
				rec := s.tracer.Start(id, remote, flags)
				r = r.WithContext(trace.NewContext(r.Context(), rec, rec.Root()))
				h := w.Header()
				h["Traceparent"] = []string{rec.Traceparent()}
				h["X-Trace-Id"] = []string{rec.TraceID().String()}
				defer s.finishTrace(rec, r, true)
				s.dispatch(w, r)
				return
			}
			// Head-sampled out: no recorder, no response trace headers, no
			// allocations — the same cost as an untraced request. Tail
			// retention still applies: with a slow threshold set, time the
			// request with two monotonic reads and, over the line,
			// synthesize a one-span trace at the propagated ID after the
			// fact, so slow outliers stay visible at any sampling rate.
			if s.slowThreshold > 0 {
				start := time.Now()
				s.dispatch(w, r)
				if d := time.Since(start); d >= s.slowThreshold {
					tr := trace.Synthesize(id, remote, start, d)
					s.tracer.Retain(tr)
					if s.exporter != nil {
						s.exporter.Enqueue(tr)
					}
					s.logSlow(tr, r)
				}
				return
			}
			s.dispatch(w, r)
			return
		}
	}
	s.dispatch(w, r)
}

// dispatch applies the per-request deadline and routes. Streaming paths
// are exempt from the deadline: a watch connection is *supposed* to
// outlive any per-request budget.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	if s.timeout > 0 && !isStreamPath(r.URL.Path) {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// sample applies the head-sampling policy to one trace ID and counts the
// decision. Nil sampler = keep everything (the default, and the pre-flag
// behavior).
func (s *Server) sample(id trace.TraceID) bool {
	if s.sampler == nil || s.sampler.Sample(id) {
		s.svc.Metrics().add(traceSampled, 1)
		return true
	}
	s.svc.Metrics().add(traceUnsampled, 1)
	return false
}

// headSampledOut reports whether r carried a *valid* traceparent that
// head sampling declined — the only way a request reaches a handler with
// a parseable header but no recorder in its context. Malformed headers
// return false: they never faced the sampler, so a local mint is fair.
func headSampledOut(r *http.Request) bool {
	vals := r.Header["Traceparent"]
	if len(vals) == 0 {
		return false
	}
	_, _, _, ok := trace.ParseTraceparent(vals[0])
	return ok
}

// finishTrace seals a request's trace and decides retention: keep it in
// the ring and hand it to the exporter iff the head sampler said yes OR
// the tail says it matters anyway (slow or errored). A sealed-and-dropped
// trace costs nothing downstream.
func (s *Server) finishTrace(rec *trace.Recorder, r *http.Request, sampled bool) {
	tr := s.tracer.Seal(rec)
	if tr == nil {
		return
	}
	slow := s.slowThreshold > 0 && tr.Duration >= s.slowThreshold
	if !sampled && !slow && tr.Err == "" {
		return
	}
	s.tracer.Retain(tr)
	if s.exporter != nil {
		s.exporter.Enqueue(tr)
	}
	if slow {
		s.logSlow(tr, r)
	}
}

// logSlow dumps a slow trace's span tree — the after-the-fact
// decomposition of "why was that request slow".
func (s *Server) logSlow(tr *trace.Trace, r *http.Request) {
	if s.slowLog == nil {
		return
	}
	s.slowLog.Warn("slow request",
		"trace_id", tr.ID,
		"method", r.Method,
		"path", r.URL.Path,
		"duration", tr.Duration,
		"threshold", s.slowThreshold,
		"span_tree", "\n"+tr.Tree(),
	)
}

// isStreamPath reports paths that hold the connection open indefinitely.
func isStreamPath(p string) bool { return p == "/v1/watch" }

// Handler returns the server as an http.Handler (for wrapping in
// middleware). The returned handler applies the request timeout.
func (s *Server) Handler() http.Handler { return s }

// errorBody is the JSON error envelope. Kind is machine-readable so
// clients branch without parsing messages.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// headerJSON is the Content-Type value slice shared by every JSON
// response: assigning it into the header map directly avoids the
// per-request slice http.Header.Set allocates. Never mutated.
var headerJSON = []string{"application/json"}

// encodeBuf pairs a reusable buffer with a json.Encoder bound to it once,
// so rendering a response allocates neither an encoder nor (steady-state)
// buffer space.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// encodeBufs is an explicit free-list rather than a sync.Pool: the GC may
// empty a sync.Pool at any collection, which would make serving's
// allocs/op nondeterministic and flake the exact CI gate.
var encodeBufs struct {
	mu   sync.Mutex
	free []*encodeBuf
}

// encodeBufMaxRetained bounds the buffer capacity kept on the free-list;
// a one-off giant response (a huge dataset listing) must not pin its
// buffer forever.
const encodeBufMaxRetained = 1 << 20

func getEncodeBuf() *encodeBuf {
	encodeBufs.mu.Lock()
	if n := len(encodeBufs.free); n > 0 {
		b := encodeBufs.free[n-1]
		encodeBufs.free[n-1] = nil
		encodeBufs.free = encodeBufs.free[:n-1]
		encodeBufs.mu.Unlock()
		return b
	}
	encodeBufs.mu.Unlock()
	b := &encodeBuf{}
	b.enc = json.NewEncoder(&b.buf)
	b.enc.SetIndent("", "  ")
	return b
}

func putEncodeBuf(b *encodeBuf) {
	if b.buf.Cap() > encodeBufMaxRetained {
		return
	}
	b.buf.Reset()
	encodeBufs.mu.Lock()
	encodeBufs.free = append(encodeBufs.free, b)
	encodeBufs.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b := getEncodeBuf()
	if err := b.enc.Encode(v); err != nil {
		// Our response types cannot fail to marshal; defend anyway.
		putEncodeBuf(b)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, b.buf.Bytes())
	putEncodeBuf(b)
}

// writeBody writes a pre-rendered JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = headerJSON
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// encodeJSON renders v exactly as writeJSON writes it, returning a fresh
// slice the caller may retain (the pre-marshaled cache bodies).
func encodeJSON(v any) ([]byte, error) {
	b := getEncodeBuf()
	if err := b.enc.Encode(v); err != nil {
		putEncodeBuf(b)
		return nil, err
	}
	out := append([]byte(nil), b.buf.Bytes()...)
	putEncodeBuf(b)
	return out, nil
}

// writeError maps the service's sentinel error kinds — and the solver's
// typed *rrr.Error hierarchy — to HTTP statuses and structured bodies.
func writeError(w http.ResponseWriter, err error) {
	status, kind := classifyError(err)
	writeJSON(w, status, errorBody{Error: err.Error(), Kind: kind})
}

func classifyError(err error) (status int, kind string) {
	var solveErr *rrr.Error
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, ErrConflict):
		return http.StatusConflict, "conflict"
	case errors.Is(err, watch.ErrMaxSubscribers), errors.Is(err, watch.ErrClosed):
		// Both are load/lifecycle conditions, not client mistakes: retry
		// later (or elsewhere).
		return http.StatusServiceUnavailable, "unavailable"
	case errors.As(err, &solveErr):
		switch solveErr.KindName() {
		case "canceled":
			if errors.Is(err, context.DeadlineExceeded) {
				return http.StatusGatewayTimeout, "canceled"
			}
			return statusClientClosedRequest, "canceled"
		case "budget_exhausted":
			return http.StatusServiceUnavailable, "budget_exhausted"
		case "infeasible":
			return http.StatusUnprocessableEntity, "infeasible"
		}
	case errors.Is(err, context.DeadlineExceeded):
		// The request deadline fired while waiting on a computation.
		return http.StatusGatewayTimeout, "canceled"
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "canceled"
	}
	return http.StatusInternalServerError, "internal"
}

// registerRequest is the POST /datasets payload. Exactly one of Kind or
// CSV must be set: Kind generates a synthetic dataset (dot, bn,
// independent, correlated, anticorrelated) of N rows (projected onto Dims
// attributes when 0 < Dims < native), CSV registers inline data in the
// repository's header convention ("Name:+" / "Name:-").
type registerRequest struct {
	Name string `json:"name"`
	Kind string `json:"kind,omitempty"`
	N    int    `json:"n,omitempty"`
	Dims int    `json:"dims,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	CSV  string `json:"csv,omitempty"`
}

// datasetInfo describes one registered dataset in responses: identity,
// shape, provenance (kind), and the mutation generation — everything a
// client needs to decide whether its view of the dataset is current.
type datasetInfo struct {
	Name       string   `json:"name"`
	N          int      `json:"n"`
	Dims       int      `json:"dims"`
	Kind       string   `json:"kind"`
	Generation int64    `json:"generation"`
	Mutable    bool     `json:"mutable"`
	Attrs      []string `json:"attrs"`
}

func describe(e *Entry) datasetInfo {
	attrs := make([]string, len(e.Table.Attrs))
	for i, a := range e.Table.Attrs {
		dir := ":+"
		if !a.HigherBetter {
			dir = ":-"
		}
		attrs[i] = a.Name + dir
	}
	return datasetInfo{
		Name:       e.Name,
		N:          e.Data.N(),
		Dims:       e.Data.Dims(),
		Kind:       e.Kind,
		Generation: e.Gen,
		Mutable:    e.Log != nil,
		Attrs:      attrs,
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var entry *Entry
	var err error
	switch {
	case req.Kind != "" && req.CSV != "":
		writeError(w, fmt.Errorf("service: body sets both kind and csv: %w", ErrBadRequest))
		return
	case req.Kind != "":
		entry, err = s.svc.Registry().Generate(req.Name, req.Kind, req.N, req.Dims, req.Seed)
	case req.CSV != "":
		entry, err = s.svc.Registry().RegisterCSV(req.Name, strings.NewReader(req.CSV))
	default:
		writeError(w, fmt.Errorf("service: body sets neither kind nor csv: %w", ErrBadRequest))
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, describe(entry))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.svc.Registry().Entries()
	out := make([]datasetInfo, len(entries))
	for i, e := range entries {
		out[i] = describe(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.svc.RemoveDataset(name) {
		writeError(w, fmt.Errorf("service: dataset %q: %w", name, ErrNotFound))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

// appendRequest is the POST /datasets/{name}/append payload: raw attribute
// rows in the dataset's schema (arity checked server-side). JSON cannot
// carry NaN or infinities, and any that arrive spelled as numbers too
// large to represent fail decoding as bad requests.
type appendRequest struct {
	Rows [][]float64 `json:"rows"`
}

// deleteRequest is the POST /datasets/{name}/delete payload: stable tuple
// IDs. Duplicates are rejected; unknown IDs report per-tuple "not_found".
type deleteRequest struct {
	IDs []int `json:"ids"`
}

// tupleStatusBody is one tuple's outcome in a mutation response.
type tupleStatusBody struct {
	ID     int    `json:"id"`
	Op     string `json:"op"`
	Status string `json:"status"`
}

// maintenanceBody tallies what the batch did to cached answers.
type maintenanceBody struct {
	Revalidated int `json:"revalidated"`
	Repaired    int `json:"repaired"`
	Recomputed  int `json:"recomputed"`
}

// mutationResponse is the append/delete endpoints' payload.
type mutationResponse struct {
	Dataset     string            `json:"dataset"`
	Generation  int64             `json:"generation"`
	N           int               `json:"n"`
	Tuples      []tupleStatusBody `json:"tuples"`
	Maintenance maintenanceBody   `json:"maintenance"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mutate(w, r, delta.Batch{Append: req.Rows})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mutate(w, r, delta.Batch{Delete: req.IDs})
}

// mutate runs one batch through the service and renders the outcome.
func (s *Server) mutate(w http.ResponseWriter, r *http.Request, b delta.Batch) {
	mut, err := s.svc.Mutate(r.Context(), r.PathValue("name"), b)
	if err != nil {
		trace.MarkError(r.Context(), err)
		writeError(w, err)
		return
	}
	resp := mutationResponse{
		Dataset:    mut.Dataset,
		Generation: mut.Gen,
		N:          mut.N,
		Tuples:     make([]tupleStatusBody, len(mut.Tuples)),
		Maintenance: maintenanceBody{
			Revalidated: mut.Stats.Revalidated,
			Repaired:    mut.Stats.Repaired,
			Recomputed:  mut.Stats.Recomputed,
		},
	}
	for i, ts := range mut.Tuples {
		resp.Tuples[i] = tupleStatusBody{ID: ts.ID, Op: ts.Op, Status: ts.Status}
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeBody decodes a JSON request body with the server's standard
// limits and strictness, writing the 400 itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, fmt.Errorf("service: invalid JSON body: %v: %w", err, ErrBadRequest))
		return false
	}
	return true
}

// representativeResponse is the GET /representative payload.
type representativeResponse struct {
	Dataset   string  `json:"dataset"`
	K         int     `json:"k"`
	Algorithm string  `json:"algorithm"`
	Size      int     `json:"size"`
	IDs       []int   `json:"ids"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"compute_ms"`
	KSets     int     `json:"ksets,omitempty"`
	Nodes     int     `json:"nodes,omitempty"`
}

func (s *Server) handleRepresentative(w http.ResponseWriter, r *http.Request) {
	// Parameters come off RawQuery without materializing a url.Values map:
	// this handler is the daemon's hottest path, and a warm cache hit
	// serves pre-marshaled bytes without allocating at all.
	raw := r.URL.RawQuery
	name := queryParam(raw, "dataset")
	if name == "" {
		writeError(w, fmt.Errorf("service: missing dataset parameter: %w", ErrBadRequest))
		return
	}
	k, err := intParam(queryParam(raw, "k"), "k")
	if err != nil {
		writeError(w, err)
		return
	}
	algoName := queryParam(raw, "algo")

	svc := s.svc
	entry, err := svc.registry.Get(name)
	if err != nil {
		writeError(w, err)
		return
	}
	if k <= 0 {
		writeError(w, fmt.Errorf("service: k must be positive, got %d: %w", k, ErrBadRequest))
		return
	}
	algo, err := resolveAlgo(entry, algoName)
	if err != nil {
		writeError(w, err)
		return
	}
	// Key and solve share one entry snapshot, so the body attached below
	// can never describe a different generation than the slot it lands on.
	key := svc.key(entry, k, algo)
	if body, ok := svc.cache.EncodedBody(key); ok {
		writeBody(w, http.StatusOK, body)
		return
	}
	// Past the warm fast path a solve (or a wait on someone else's solve)
	// is coming: give the request a locally-rooted trace if the client
	// didn't send one, so every expensive request is decomposable after
	// the fact via /v1/traces. A request whose *valid* traceparent was
	// head-sampled out upstream (no recorder in ctx despite the header)
	// must not be re-minted here — the sampler's decision covers the
	// whole request; detecting that re-parses the header rather than
	// threading a flag through the context, keeping the sampled-out path
	// allocation-free.
	ctx := r.Context()
	if rec, _ := trace.FromContext(ctx); rec == nil && !headSampledOut(r) {
		rec = s.tracer.StartLocal()
		sampled := true
		if s.sampler != nil {
			// Locally-minted traces face the same policy as propagated
			// ones; recording still happens (the solve is already paying
			// for spans) but retention and export follow the decision.
			sampled = s.sample(rec.TraceID())
		}
		ctx = trace.NewContext(ctx, rec, rec.Root())
		w.Header()["X-Trace-Id"] = []string{rec.TraceID().String()}
		defer s.finishTrace(rec, r, sampled)
	}
	cached, err := svc.solveEntry(ctx, entry, k, algo)
	if err != nil {
		trace.MarkError(ctx, err)
		writeError(w, err)
		return
	}
	resp := representativeResponse{
		Dataset:   name,
		K:         k,
		Algorithm: algo.String(),
		Size:      len(cached.IDs),
		IDs:       cached.IDs,
		Cached:    true, // the body every later hit serves
		ElapsedMS: float64(cached.Elapsed) / 1e6,
		KSets:     cached.Stats.KSets,
		Nodes:     cached.Stats.Nodes,
	}
	body, err := encodeJSON(resp)
	if err != nil {
		writeError(w, err)
		return
	}
	svc.cache.SetEncodedBody(key, body)
	if cached.Cached {
		writeBody(w, http.StatusOK, body)
		return
	}
	// The computing request itself reports cached:false; only the
	// attached body — served exclusively on hits — says true.
	resp.Cached = false
	writeJSON(w, http.StatusOK, resp)
}

// queryParam returns the named parameter's first value from a raw query
// string. Unescaped values — the hot GET paths' common case — are
// returned as zero-copy substrings; values (or keys) containing %XX or +
// escapes fall back to url.QueryUnescape, matching url.Values exactly.
func queryParam(rawQuery, name string) string {
	for q := rawQuery; q != ""; {
		var pair string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			pair, q = q, ""
		}
		k, v, _ := strings.Cut(pair, "=")
		if k != name {
			if strings.IndexByte(k, '%') < 0 && strings.IndexByte(k, '+') < 0 {
				continue
			}
			dk, err := url.QueryUnescape(k)
			if err != nil || dk != name {
				continue
			}
		}
		if strings.IndexByte(v, '%') < 0 && strings.IndexByte(v, '+') < 0 {
			return v
		}
		dv, err := url.QueryUnescape(v)
		if err != nil {
			// url.Values drops malformed pairs; an empty value makes the
			// handler report the parameter missing, the closest message.
			return ""
		}
		return dv
	}
	return ""
}

// batchRequest is the POST /batch payload: one dataset, one algorithm,
// many queries. Each item sets exactly one of k (primal rank target) and
// size (dual size budget).
type batchRequest struct {
	Dataset string           `json:"dataset"`
	Algo    string           `json:"algo,omitempty"`
	Items   []batchQueryBody `json:"items"`
}

type batchQueryBody struct {
	K    int `json:"k,omitempty"`
	Size int `json:"size,omitempty"`
}

// batchItemResponse is one query's outcome. Successful items carry the
// result fields; failed items carry {error, kind} with the same kinds the
// single-query endpoints use, so clients branch per item exactly as they
// branch per response elsewhere.
type batchItemResponse struct {
	K         int     `json:"k,omitempty"`
	SizeLimit int     `json:"size_limit,omitempty"`
	Size      int     `json:"size,omitempty"`
	IDs       []int   `json:"ids,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	ElapsedMS float64 `json:"compute_ms,omitempty"`
	KSets     int     `json:"ksets,omitempty"`
	Nodes     int     `json:"nodes,omitempty"`
	Error     string  `json:"error,omitempty"`
	Kind      string  `json:"kind,omitempty"`
}

type batchResponse struct {
	Dataset   string              `json:"dataset"`
	Algorithm string              `json:"algorithm"`
	Items     []batchItemResponse `json:"items"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Dataset == "" {
		writeError(w, fmt.Errorf("service: missing dataset field: %w", ErrBadRequest))
		return
	}
	queries := make([]BatchQuery, len(req.Items))
	for i, it := range req.Items {
		queries[i] = BatchQuery{K: it.K, Size: it.Size}
	}
	items, algo, err := s.svc.Batch(r.Context(), req.Dataset, req.Algo, queries)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := batchResponse{Dataset: req.Dataset, Algorithm: string(algo), Items: make([]batchItemResponse, len(items))}
	for i, it := range items {
		out := &resp.Items[i]
		out.K = it.K
		out.SizeLimit = it.Query.Size
		if it.Err != nil {
			out.K = it.Query.K
			_, out.Kind = classifyError(it.Err)
			out.Error = it.Err.Error()
			continue
		}
		out.Size = len(it.IDs)
		out.IDs = it.IDs
		out.Cached = it.Cached
		out.ElapsedMS = float64(it.Elapsed) / 1e6
		out.KSets = it.Stats.KSets
		out.Nodes = it.Stats.Nodes
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("dataset")
	if name == "" {
		writeError(w, fmt.Errorf("service: missing dataset parameter: %w", ErrBadRequest))
		return
	}
	weights, err := parseFloats(q.Get("weights"), "weights")
	if err != nil {
		writeError(w, err)
		return
	}
	switch {
	case q.Get("id") != "":
		id, err := intParam(q.Get("id"), "id")
		if err != nil {
			writeError(w, err)
			return
		}
		rank, err := s.svc.RankOf(name, id, weights)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dataset": name, "id": id, "rank": rank})
	case q.Get("ids") != "":
		ids, err := parseInts(q.Get("ids"), "ids")
		if err != nil {
			writeError(w, err)
			return
		}
		rr, err := s.svc.RankRegretOf(name, ids, weights)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dataset": name, "ids": ids, "rank_regret": rr})
	default:
		writeError(w, fmt.Errorf("service: missing id or ids parameter: %w", ErrBadRequest))
	}
}

func (s *Server) handleRegret(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("dataset")
	if name == "" {
		writeError(w, fmt.Errorf("service: missing dataset parameter: %w", ErrBadRequest))
		return
	}
	ids, err := parseInts(q.Get("ids"), "ids")
	if err != nil {
		writeError(w, err)
		return
	}
	samples := 0
	if raw := q.Get("samples"); raw != "" {
		if samples, err = intParam(raw, "samples"); err != nil {
			writeError(w, err)
			return
		}
	}
	est, err := s.svc.EstimateRegret(name, ids, samples)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":    name,
		"ids":        ids,
		"worst_rank": est.WorstRank,
		"witness":    est.Witness,
		"samples":    est.Samples,
	})
}

// handleWatch serves GET /v1/watch: a Server-Sent Events stream of the
// watched representative's evolution (see DESIGN.md §10 for the event
// grammar). Validation errors are ordinary JSON errors — the response
// only commits to text/event-stream once the subscription is live and
// the preamble (snapshot or replayed suffix) is ready.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("service: watch needs a flushable connection (no HTTP/1.0 proxies): %w", ErrBadRequest))
		return
	}
	q := r.URL.Query()
	name := q.Get("dataset")
	if name == "" {
		writeError(w, fmt.Errorf("service: missing dataset parameter: %w", ErrBadRequest))
		return
	}
	k, err := intParam(q.Get("k"), "k")
	if err != nil {
		writeError(w, err)
		return
	}
	var lastGen int64
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		lastGen, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || lastGen <= 0 {
			writeError(w, fmt.Errorf("service: Last-Event-ID %q is not a generation: %w", raw, ErrBadRequest))
			return
		}
	}
	// The sink runs on the subscription's drain goroutine only (never
	// before Start, never after Done), so the scratch buffer and the
	// ResponseWriter need no further synchronization.
	var buf []byte
	sink := func(ev watch.Event) error {
		buf = watch.AppendSSE(buf[:0], ev)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}
	sub, preamble, err := s.svc.Watch(r.Context(), WatchRequest{Dataset: name, K: k, Algo: q.Get("algo"), LastGen: lastGen}, sink)
	if err != nil {
		writeError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // nginx: do not buffer the stream
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	sub.Start(preamble)
	select {
	case <-sub.Done():
	case <-r.Context().Done():
		sub.Cancel()
		// The drainer may be mid-write; it owns the ResponseWriter until
		// Done, and a write on the dead connection errors out promptly.
		<-sub.Done()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"datasets": s.svc.Registry().Len(),
		"time":     time.Now().UTC().Format(time.RFC3339),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Metrics().Snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "prometheus", "text":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.svc.Metrics().WritePrometheus(w)
	case "openmetrics":
		// The OpenMetrics rendering of the same families, with trace
		// exemplars on histogram buckets — the metrics→traces link.
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		s.svc.Metrics().WriteOpenMetrics(w)
	default:
		writeError(w, fmt.Errorf("service: unknown metrics format %q (want prometheus or openmetrics): %w", format, ErrBadRequest))
	}
}

// traceSpanBody is one span in a trace response. Shard is -1 for spans
// not tied to a shard (or, for delta_repair, not tied to a rank target).
type traceSpanBody struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"`
	Name       string  `json:"name"`
	Shard      int     `json:"shard"`
	StartUS    float64 `json:"start_us"`
	DurationUS float64 `json:"duration_us"`
	Open       bool    `json:"open,omitempty"`
}

// traceSummaryBody is one trace in the GET /traces listing.
type traceSummaryBody struct {
	ID           string    `json:"id"`
	Start        time.Time `json:"start"`
	DurationMS   float64   `json:"duration_ms"`
	Spans        int       `json:"spans"`
	Dropped      int       `json:"dropped,omitempty"`
	RemoteParent string    `json:"remote_parent,omitempty"`
}

// traceBody is the GET /traces/{id} payload: the full span set plus the
// rendered tree for humans.
type traceBody struct {
	traceSummaryBody
	SpanList []traceSpanBody `json:"span_list"`
	Tree     string          `json:"tree"`
}

func summarizeTrace(tr *trace.Trace) traceSummaryBody {
	return traceSummaryBody{
		ID:           tr.ID,
		Start:        tr.Start,
		DurationMS:   float64(tr.Duration) / 1e6,
		Spans:        len(tr.Spans),
		Dropped:      tr.Dropped,
		RemoteParent: tr.RemoteParent,
	}
}

// handleTraces serves the recent-trace ring, newest first. limit bounds
// the listing (default: the whole ring); n is the pre-rename alias.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	name, raw := "limit", r.URL.Query().Get("limit")
	if raw == "" {
		name, raw = "n", r.URL.Query().Get("n")
	}
	if raw != "" {
		v, err := intParam(raw, name)
		if err != nil {
			writeError(w, err)
			return
		}
		if v < 1 {
			writeError(w, fmt.Errorf("service: %s must be at least 1, got %d: %w", name, v, ErrBadRequest))
			return
		}
		n = v
	}
	recent := s.tracer.Recent(n)
	out := make([]traceSummaryBody, len(recent))
	for i, tr := range recent {
		out[i] = summarizeTrace(tr)
	}
	writeJSON(w, http.StatusOK, map[string]any{"total": s.tracer.Total(), "traces": out})
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.tracer.Lookup(id)
	if !ok {
		writeError(w, fmt.Errorf("service: trace %q not in the recent-trace ring: %w", id, ErrNotFound))
		return
	}
	body := traceBody{
		traceSummaryBody: summarizeTrace(tr),
		SpanList:         make([]traceSpanBody, len(tr.Spans)),
		Tree:             tr.Tree(),
	}
	for i, sp := range tr.Spans {
		body.SpanList[i] = traceSpanBody{
			ID:         int(sp.ID),
			Parent:     int(sp.Parent),
			Name:       sp.Name,
			Shard:      sp.Shard,
			StartUS:    float64(sp.Start) / 1e3,
			DurationUS: float64(sp.Duration()) / 1e3,
			Open:       sp.End == 0,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func intParam(raw, name string) (int, error) {
	if raw == "" {
		return 0, fmt.Errorf("service: missing %s parameter: %w", name, ErrBadRequest)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("service: %s=%q is not an integer: %w", name, raw, ErrBadRequest)
	}
	return v, nil
}

func parseInts(raw, name string) ([]int, error) {
	if raw == "" {
		return nil, fmt.Errorf("service: missing %s parameter: %w", name, ErrBadRequest)
	}
	parts := strings.Split(raw, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("service: %s element %q is not an integer: %w", name, p, ErrBadRequest)
		}
		out[i] = v
	}
	return out, nil
}

func parseFloats(raw, name string) ([]float64, error) {
	if raw == "" {
		return nil, fmt.Errorf("service: missing %s parameter: %w", name, ErrBadRequest)
	}
	parts := strings.Split(raw, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("service: %s element %q is not a number: %w", name, p, ErrBadRequest)
		}
		out[i] = v
	}
	return out, nil
}
