package service

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rrr/internal/delta"
	"rrr/internal/wal"
)

// newPersistedService boots a delta-enabled service on a data directory,
// as rrrd -delta -data-dir does. The caller owns closing the store.
func newPersistedService(t *testing.T, dir string) (*Service, *wal.Store) {
	t.Helper()
	svc := New(Config{Seed: 1, DeltaMaintenance: true})
	st, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	svc.AttachStore(st)
	if _, err := svc.Recover(context.Background()); err != nil {
		st.Close()
		t.Fatal(err)
	}
	return svc, st
}

type datasetListBody struct {
	Datasets []struct {
		Name       string   `json:"name"`
		N          int      `json:"n"`
		Dims       int      `json:"dims"`
		Kind       string   `json:"kind"`
		Generation int64    `json:"generation"`
		Mutable    bool     `json:"mutable"`
		Attrs      []string `json:"attrs"`
	} `json:"datasets"`
}

type statsBody struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Persist     struct {
		WALAppends      int64 `json:"wal_appends"`
		ReplayedBatches int64 `json:"replayed_batches"`
		WarmedAnswers   int64 `json:"warmed_answers"`
	} `json:"persist"`
}

// TestHTTPRestartSemantics is the client's view of durability: after a
// clean shutdown and restart on the same data directory, GET /v1/datasets
// reports the same metadata — generation included — and a representative
// computed before the restart is served warm, without a single cache miss.
func TestHTTPRestartSemantics(t *testing.T) {
	dir := t.TempDir()

	svc, st := newPersistedService(t, dir)
	if _, err := svc.Registry().RegisterCSV("anchored", strings.NewReader(anchoredCSV)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	doJSON[mutationBody](t, "POST", ts.URL+"/v1/datasets/anchored/append", `{"rows":[[0.4,0.7],[0.8,0.35]]}`, 200)
	before := doJSON[datasetListBody](t, "GET", ts.URL+"/v1/datasets", "", 200)
	rep := doJSON[representativeResponse](t, "GET", ts.URL+"/v1/representative?dataset=anchored&k=2", "", 200)
	if rep.Cached {
		t.Fatal("first solve reported as cached")
	}
	// Clean shutdown: snapshot, warm-cache export, WAL truncation.
	ts.Close()
	if err := svc.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, st2 := newPersistedService(t, dir)
	defer st2.Close()
	ts2 := httptest.NewServer(NewServer(svc2))
	defer ts2.Close()

	after := doJSON[datasetListBody](t, "GET", ts2.URL+"/v1/datasets", "", 200)
	if len(after.Datasets) != 1 || len(before.Datasets) != 1 {
		t.Fatalf("dataset listings: %d before, %d after", len(before.Datasets), len(after.Datasets))
	}
	b, a := before.Datasets[0], after.Datasets[0]
	if a.Name != b.Name || a.N != b.N || a.Dims != b.Dims || a.Kind != b.Kind ||
		a.Generation != b.Generation || a.Mutable != b.Mutable || !slices.Equal(a.Attrs, b.Attrs) {
		t.Fatalf("dataset metadata changed across restart:\nbefore %+v\nafter  %+v", b, a)
	}
	if a.Generation < 2 || !a.Mutable || a.N != 9 {
		t.Fatalf("unexpected restored metadata: %+v", a)
	}

	rep2 := doJSON[representativeResponse](t, "GET", ts2.URL+"/v1/representative?dataset=anchored&k=2", "", 200)
	if !rep2.Cached || !slices.Equal(rep2.IDs, rep.IDs) {
		t.Fatalf("restart lost the warm answer: cached=%v ids=%v, want cached ids %v", rep2.Cached, rep2.IDs, rep.IDs)
	}
	stats := doJSON[statsBody](t, "GET", ts2.URL+"/v1/stats", "", 200)
	if stats.CacheMisses != 0 || stats.CacheHits != 1 {
		t.Fatalf("restarted daemon recomputed: hits=%d misses=%d", stats.CacheHits, stats.CacheMisses)
	}
	if stats.Persist.WarmedAnswers != 1 {
		t.Fatalf("warmed answers = %d, want 1", stats.Persist.WarmedAnswers)
	}
}

// TestRecoverReplaysUnsnapshottedWAL is the crash path: batches applied
// after the last snapshot exist only in the WAL, and recovery must rebuild
// them — table, IDs, watermark and generation all bit-for-bit.
func TestRecoverReplaysUnsnapshottedWAL(t *testing.T) {
	dir := t.TempDir()
	svc, st := newPersistedService(t, dir)
	if _, err := svc.Registry().RegisterCSV("anchored", strings.NewReader(anchoredCSV)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Persist(); err != nil { // baseline snapshot at generation 1
		t.Fatal(err)
	}
	if _, _, err := svc.Registry().Mutate(context.Background(), "anchored", delta.Batch{Append: [][]float64{{0.45, 0.65}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Registry().Mutate(context.Background(), "anchored", delta.Batch{Delete: []int{2}}); err != nil {
		t.Fatal(err)
	}
	live, err := svc.Registry().Get("anchored")
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no Persist. The two batches are only in the WAL.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := New(Config{Seed: 1, DeltaMaintenance: true})
	st2, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2.AttachStore(st2)
	rec, err := svc2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotDatasets != 1 || rec.ReplayedBatches != 2 || rec.TornTail {
		t.Fatalf("recovery = %+v, want 1 dataset, 2 replayed, clean tail", rec)
	}
	got, err := svc2.Registry().Get("anchored")
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != live.Gen {
		t.Fatalf("recovered generation %d, want %d", got.Gen, live.Gen)
	}
	if !got.Table.Equal(live.Table) {
		t.Fatalf("recovered table differs:\ngot  %+v\nwant %+v", got.Table, live.Table)
	}
	if svc2.Metrics().Snapshot().Persist.ReplayedBatches != 2 {
		t.Fatal("replayed_batches counter not advanced")
	}

	// Generations minted after recovery continue past everything the
	// crashed process handed out — cache keys stay unique across the crash.
	_, ch, err := svc2.Registry().Mutate(context.Background(), "anchored", delta.Batch{Append: [][]float64{{0.5, 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Gen <= live.Gen {
		t.Fatalf("post-recovery generation %d does not pass the pre-crash %d", ch.Gen, live.Gen)
	}
}

// TestWarmCacheRejectsStaleGeneration: answers exported at one generation
// must not be readmitted when the WAL advances the dataset past it —
// serving them would be serving deleted data.
func TestWarmCacheRejectsStaleGeneration(t *testing.T) {
	dir := t.TempDir()
	svc, st := newPersistedService(t, dir)
	if _, err := svc.Registry().RegisterCSV("anchored", strings.NewReader(anchoredCSV)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Representative(context.Background(), "anchored", 2, ""); err != nil {
		t.Fatal(err)
	}
	if err := svc.Persist(); err != nil { // snapshot + warm cache at generation 1
		t.Fatal(err)
	}
	// Mutate after the snapshot: the WAL now carries generation 2, making
	// the exported generation-1 answer stale.
	if _, _, err := svc.Registry().Mutate(context.Background(), "anchored", delta.Batch{Append: [][]float64{{0.9, 0.9}}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	svc2, st2 := newPersistedService(t, dir)
	defer st2.Close()
	if warmed := svc2.Metrics().Snapshot().Persist.WarmedAnswers; warmed != 0 {
		t.Fatalf("%d stale answers readmitted", warmed)
	}
	if _, err := svc2.Representative(context.Background(), "anchored", 2, ""); err != nil {
		t.Fatal(err)
	}
	if misses := svc2.Metrics().Snapshot().CacheMisses; misses != 1 {
		t.Fatalf("cache misses = %d, want a fresh compute", misses)
	}
}

// TestWarmCacheRejectsVersion1File: a warm-cache file in the format
// before version 2 dropped the shard fields (../wal/testdata/cache_v1.bin:
// one unsharded and one sharded answer for anchored at generation 1, k=2)
// must be discarded, not misread — sharded MDRRR answers can differ from
// unsharded ones. The service boots normally and computes afresh.
func TestWarmCacheRejectsVersion1File(t *testing.T) {
	dir := t.TempDir()
	svc, st := newPersistedService(t, dir)
	if _, err := svc.Registry().RegisterCSV("anchored", strings.NewReader(anchoredCSV)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Persist(); err != nil { // snapshot at generation 1
		t.Fatal(err)
	}
	st.Close()
	v1, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "cache_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cache.bin"), v1, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, st2 := newPersistedService(t, dir)
	defer st2.Close()
	if warmed := svc2.Metrics().Snapshot().Persist.WarmedAnswers; warmed != 0 {
		t.Fatalf("%d answers readmitted from a version-1 cache file", warmed)
	}
	rep, err := svc2.Representative(context.Background(), "anchored", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached {
		t.Fatal("answer served from the version-1 cache file")
	}
	if misses := svc2.Metrics().Snapshot().CacheMisses; misses != 1 {
		t.Fatalf("cache misses = %d, want a fresh compute", misses)
	}
}

// TestMutateFailsClosedWhenWALDoes: a batch whose WAL append fails must be
// rejected as a server error — not applied, not a client error.
func TestMutateFailsClosedWhenWALDoes(t *testing.T) {
	dir := t.TempDir()
	svc, st := newPersistedService(t, dir)
	if _, err := svc.Registry().RegisterCSV("anchored", strings.NewReader(anchoredCSV)); err != nil {
		t.Fatal(err)
	}
	before, err := svc.Registry().Get("anchored")
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // every further append returns ErrClosed

	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	doJSON[map[string]any](t, "POST", ts.URL+"/v1/datasets/anchored/append", `{"rows":[[0.4,0.7]]}`, 500)

	after, err := svc.Registry().Get("anchored")
	if err != nil {
		t.Fatal(err)
	}
	if after.Gen != before.Gen || !after.Table.Equal(before.Table) {
		t.Fatal("batch committed despite the failed WAL append")
	}
}
