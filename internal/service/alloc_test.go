package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"rrr/internal/dataset"
	"rrr/internal/delta"
)

// The serving layer's allocation contracts: once a representative is
// computed and its response body attached to the cache slot, serving it —
// through the Service API or the full HTTP handler — allocates nothing.
// Pinned with AllocsPerRun so a regression fails tests, not just drifts a
// benchmark.

// TestRepresentativeIntoCachedHitAllocFree: a warm cache hit through the
// reuse API costs zero allocations.
func TestRepresentativeIntoCachedHitAllocFree(t *testing.T) {
	svc := New(Config{Seed: 1})
	registerGenerated(t, svc, "uni", "independent", 500, 2)
	ctx := context.Background()
	var out Representative
	if err := svc.RepresentativeInto(ctx, "uni", 10, "", &out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := svc.RepresentativeInto(ctx, "uni", 10, "", &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached-hit RepresentativeInto allocates %.1f times per run, want 0", allocs)
	}
	if !out.Cached || len(out.IDs) == 0 {
		t.Fatalf("warm runs served a bad result: %+v", out)
	}
}

// nullResponseWriter is a zero-alloc ResponseWriter: the header map is
// allocated once and reused, the body is discarded. httptest.NewRecorder
// allocates per request, which would drown the measurement.
type nullResponseWriter struct {
	header http.Header
	status int
	bytes  int
}

func (w *nullResponseWriter) Header() http.Header    { return w.header }
func (w *nullResponseWriter) WriteHeader(status int) { w.status = status }
func (w *nullResponseWriter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	return len(b), nil
}

// TestServeCachedRepresentativeAllocFree: the whole HTTP path — mux
// dispatch, query parsing, cache lookup, pre-marshaled body write — is
// allocation-free on a warm hit. The server is built without a request
// timeout (wrapping the context would allocate per request by design).
func TestServeCachedRepresentativeAllocFree(t *testing.T) {
	svc := New(Config{Seed: 1})
	registerGenerated(t, svc, "uni", "independent", 500, 2)
	srv := NewServer(svc)
	req := httptest.NewRequest("GET", "/v1/representative?dataset=uni&k=10", nil)
	w := &nullResponseWriter{header: make(http.Header)}
	srv.ServeHTTP(w, req)
	if w.status != http.StatusOK || w.bytes == 0 {
		t.Fatalf("warm-up request failed: status %d, %d bytes", w.status, w.bytes)
	}
	allocs := testing.AllocsPerRun(50, func() {
		w.status, w.bytes = 0, 0
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.bytes == 0 {
			t.Fatalf("hit failed: status %d, %d bytes", w.status, w.bytes)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached-hit HTTP serving allocates %.1f times per run, want 0", allocs)
	}
}

// TestEscapedQueryParams: the zero-copy query scanner
// falls back to QueryUnescape for escaped parameters and still answers
// correctly (allocation-freedom is only promised for unescaped queries,
// correctness for both).
func TestEscapedQueryParams(t *testing.T) {
	svc := New(Config{Seed: 1})
	registerGenerated(t, svc, "uni", "independent", 200, 2)
	srv := NewServer(svc)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/representative?%64ataset=uni&k=%31%30", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("escaped query: status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkCachedRepresentativeHTTP is the serving hot path's tier-1
// benchmark: cached hit end to end through ServeHTTP. cmd/benchgate gates
// its allocs/op exactly; the expected steady state is 0.
func BenchmarkCachedRepresentativeHTTP(b *testing.B) {
	svc := New(Config{Seed: 1})
	table, err := dataset.ByKind("independent", 2000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Registry().Register("uni", table); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(svc)
	req := httptest.NewRequest("GET", "/v1/representative?dataset=uni&k=10", nil)
	w := &nullResponseWriter{header: make(http.Header)}
	srv.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("warm-up failed: status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, req)
	}
	if w.status != http.StatusOK {
		b.Fatalf("hit failed: status %d", w.status)
	}
}

// The daemon's own paths, gated: a still-exact mutation batch (the steady
// state of delta maintenance, with the log's maintainer reusing its pools)
// and a cache miss (a solve on the service's long-lived solver).

// stillExactKs are the rank targets cached under auto while the
// still-exact mutation loop runs.
var stillExactKs = []int{20, 50, 100, 200}

// stillExactService registers DOT-like data (d = 3, n = 2000) with delta
// maintenance on — no WAL, no watch — caches stillExactKs under auto, and
// returns the raw row of the most-dominated tuple: a copy of it is
// dominated by at least as many tuples, so appending it is still-exact at
// every cached k, and deleting the copy again removes a tuple outside
// every pool.
func stillExactService(tb testing.TB) (*Service, []float64) {
	tb.Helper()
	svc := New(Config{Seed: 1, DeltaMaintenance: true})
	table, err := dataset.ByKind("dot", 2000, 3, 1)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := svc.Registry().Register("dot", table)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range stillExactKs {
		if _, err := svc.Representative(ctx, "dot", k, ""); err != nil {
			tb.Fatal(err)
		}
	}
	counts, err := e.Data.DominatorCounts(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	worst := 0
	for i, c := range counts {
		if c > counts[worst] {
			worst = i
		}
	}
	id := e.Data.Tuple(worst).ID
	for i := range table.Rows {
		if table.ID(i) == id {
			return svc, append([]float64(nil), table.Rows[i]...)
		}
	}
	tb.Fatalf("tuple %d has no raw row", id)
	return nil, nil
}

// mutateStillExact is one op of the still-exact loop: append rows (the
// one copied row), then delete the appended tuple through del, each batch
// revalidating every cached answer. The caller owns rows and del, so the
// loop itself allocates nothing of its own.
func mutateStillExact(tb testing.TB, svc *Service, rows [][]float64, del []int) {
	ctx := context.Background()
	m, err := svc.Mutate(ctx, "dot", delta.Batch{Append: rows})
	if err != nil {
		tb.Fatal(err)
	}
	if m.Stats.Revalidated != len(stillExactKs) {
		tb.Fatalf("append: %+v, want %d revalidated", m.Stats, len(stillExactKs))
	}
	del[0] = m.Tuples[0].ID
	if m, err = svc.Mutate(ctx, "dot", delta.Batch{Delete: del}); err != nil {
		tb.Fatal(err)
	}
	if m.Stats.Revalidated != len(stillExactKs) {
		tb.Fatalf("delete: %+v, want %d revalidated", m.Stats, len(stillExactKs))
	}
}

// mutateStillExactAllocs bounds one still-exact append-and-delete op at
// the count it reaches. Most of it is the log's copy-on-write snapshot of
// each batch (the table copy, its normalization, the new table's bounds);
// classification reuses the maintainer's pools, and the rest is the
// per-batch key list and verdict maps.
const mutateStillExactAllocs = 73

// TestMutateStillExactAllocs pins what a still-exact mutation batch costs
// rrrd's maintenance path in allocations, so a regression on the path the
// daemon runs per batch fails the tests.
func TestMutateStillExactAllocs(t *testing.T) {
	svc, row := stillExactService(t)
	rows, del := [][]float64{row}, make([]int, 1)
	mutateStillExact(t, svc, rows, del)
	allocs := testing.AllocsPerRun(20, func() { mutateStillExact(t, svc, rows, del) })
	t.Logf("still-exact append+delete: %.0f allocs/op", allocs)
	if allocs > mutateStillExactAllocs {
		t.Fatalf("still-exact append+delete allocates %.0f times per op, want <= %d", allocs, mutateStillExactAllocs)
	}
}

// BenchmarkMutateStillExact is the still-exact mutation loop under
// -benchmem: one op appends a copy of the most-dominated tuple and deletes
// it, and both batches revalidate all four cached answers.
func BenchmarkMutateStillExact(b *testing.B) {
	svc, row := stillExactService(b)
	rows, del := [][]float64{row}, make([]int, 1)
	mutateStillExact(b, svc, rows, del)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutateStillExact(b, svc, rows, del)
	}
}

// BenchmarkRepresentativeMiss2D is a cache miss on every op: the dataset's
// answers are invalidated, then a 2-D representative (DOT-like, n = 1000,
// k = 100) is solved on the service's long-lived 2DRRR solver.
func BenchmarkRepresentativeMiss2D(b *testing.B) {
	svc := New(Config{Seed: 1})
	table, err := dataset.ByKind("dot", 1000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Registry().Register("dot", table); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var out Representative
	miss := func() {
		svc.cache.InvalidateDataset("dot")
		if err := svc.RepresentativeInto(ctx, "dot", 100, "", &out); err != nil {
			b.Fatal(err)
		}
		if out.Cached {
			b.Fatal("invalidated key served from cache")
		}
	}
	miss()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss()
	}
}
