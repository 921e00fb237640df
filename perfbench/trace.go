package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Layer span names, top of the stack first.
const (
	layerSocket  = "socket"
	layerHTTP    = "service.Server.ServeHTTP"
	layerService = "service.Service"
	layerSolver  = "rrr.Solver"
	layerAlgo    = "algo"
)

// span is one timed call into a layer, recorded from outside the program.
// Spans of one request share Req; Parent is the span of the layer above
// (0 for the top).
type span struct {
	Req     int     `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Kind    string  `json:"kind,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) dur() time.Duration { return time.Duration((s.EndUS - s.StartUS) * 1e3) }

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	kinds map[int]string
}

func newTracer() *tracer { return &tracer{t0: time.Now(), kinds: map[int]string{}} }

// request opens a new request ID of the given type.
func (t *tracer) request(kind string) int {
	id := len(t.kinds) + 1
	t.kinds[id] = kind
	return id
}

// traceparent is the W3C header that asks rrrd to trace a request under
// a trace ID derived from the request ID.
func (t *tracer) traceparent(req int) string {
	return fmt.Sprintf("00-%016x%016x-%016x-01", t.t0.UnixNano(), req, req)
}

// record stores a finished span and returns its ID.
func (t *tracer) record(req, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Req: req, ID: id, Parent: parent, Name: name, Kind: t.kinds[req],
		StartUS: float64(start.Sub(t.t0)) / 1e3,
		EndUS:   float64(end.Sub(t.t0)) / 1e3,
	})
	return id
}

// time runs fn as one span and returns the span ID.
func (t *tracer) time(req, parent int, name string, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return t.record(req, parent, name, start, time.Now()), err
}

// durations returns the durations of every span with the given name and,
// when kind is non-empty, request type.
func (t *tracer) durations(name, kind string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (kind == "" || s.Kind == kind) {
			out = append(out, s.dur())
		}
	}
	return out
}

// write saves the spans as JSON lines under .bench_build/traces.
func (t *tracer) write(workload string, seed int64) error {
	dir := ensureDir(filepath.Join(buildDir, "traces"))
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  %d spans written to %s\n", len(t.spans), path)
	return nil
}
