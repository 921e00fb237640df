package wal_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rrr/internal/dataset"
	"rrr/internal/wal"
)

func mustOpen(t *testing.T, dir string, opts wal.Options) *wal.Store {
	t.Helper()
	st, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func testRecords() []wal.Record {
	return []wal.Record{
		{Dataset: "flights", PrevGen: 1, Gen: 2, Append: [][]float64{{0.5, 0.25}, {1e-300, -42}}},
		{Dataset: "flights", PrevGen: 2, Gen: 3, Delete: []int{7, 0, 123456}},
		{Dataset: "diamonds", PrevGen: 4, Gen: 9, Append: [][]float64{{math.MaxFloat64}}, Delete: []int{-1}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range testRecords() {
		p, err := wal.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wal.DecodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
		// Canonical: re-encoding the decode reproduces the bytes.
		p2, err := wal.EncodeRecord(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, p2) {
			t.Fatalf("re-encode differs: %x vs %x", p, p2)
		}
	}
}

func TestRecordFloatBitsSurvive(t *testing.T) {
	// Raw-bits transport: a value with no short decimal form round-trips
	// exactly.
	v := math.Nextafter(0.1, 1)
	p, err := wal.EncodeRecord(wal.Record{Dataset: "d", PrevGen: 1, Gen: 2, Append: [][]float64{{v}}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := wal.DecodeRecord(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Append[0][0]) != math.Float64bits(v) {
		t.Fatalf("float bits changed: %x vs %x", math.Float64bits(got.Append[0][0]), math.Float64bits(v))
	}
}

func TestEncodeRecordRejectsRaggedRows(t *testing.T) {
	_, err := wal.EncodeRecord(wal.Record{Dataset: "d", Append: [][]float64{{1, 2}, {3}}})
	if err == nil {
		t.Fatal("ragged append rows encoded")
	}
}

func TestDecodeRecordStrictness(t *testing.T) {
	valid, err := wal.EncodeRecord(testRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"bad-version", append([]byte{99}, valid[1:]...)},
		{"truncated", valid[:len(valid)-1]},
		{"trailing", append(append([]byte{}, valid...), 0)},
		// A delete count far beyond the payload must fail before allocating.
		{"huge-count", func() []byte {
			p := append([]byte{}, valid...)
			// dataset "flights" (2+7 bytes) + version byte + 16 gen bytes = offset 26.
			p[26], p[27], p[28], p[29] = 0xff, 0xff, 0xff, 0xff
			return p
		}()},
	}
	for _, tc := range cases {
		if _, err := wal.DecodeRecord(tc.p); err == nil {
			t.Errorf("%s: decode accepted", tc.name)
		}
	}
}

func TestWALAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})
	want := testRecords()
	for _, rec := range want {
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if stats := st.Stats(); stats.Appends != int64(len(want)) || stats.Bytes == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})
	var got []wal.Record
	res, err := st2.Replay(func(r wal.Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TornTail || res.Records != len(want) {
		t.Fatalf("replay result = %+v", res)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})
	for _, rec := range testRecords() {
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last record.
	torn := data[:len(data)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})
	n := 0
	res, err := st2.Replay(func(wal.Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.TornTail || n != len(testRecords())-1 || res.DroppedBytes == 0 {
		t.Fatalf("replay = %+v after %d records", res, n)
	}
	// The tail is gone from disk: appends continue from the intact prefix.
	if _, err := st2.Append(wal.Record{Dataset: "x", PrevGen: 3, Gen: 4, Delete: []int{1}}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3 := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})
	n = 0
	res, err = st3.Replay(func(wal.Record) error { n++; return nil })
	if err != nil || res.TornTail || n != len(testRecords()) {
		t.Fatalf("after truncate+append: res=%+v n=%d err=%v", res, n, err)
	}
}

func TestWALCorruptByteStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})
	for _, rec := range testRecords() {
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the second record: CRC must catch it and
	// replay must stop after the first.
	first, err := wal.EncodeRecord(testRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	off := 8 + 8 + len(first) + 8 + 2 // magic, frame 1, frame 2 header, into payload
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})
	n := 0
	res, err := st2.Replay(func(wal.Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !res.TornTail {
		t.Fatalf("corrupt byte: replayed %d records, res=%+v", n, res)
	}
}

func TestWALTruncateAndClosedErrors(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, wal.Options{Sync: wal.SyncNever})
	if _, err := st.Append(testRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.TruncateWAL(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := st.Replay(func(wal.Record) error { n++; return nil }); err != nil || n != 0 {
		t.Fatalf("replay after truncate: n=%d err=%v", n, err)
	}
	st.Close()
	if _, err := st.Append(testRecords()[0]); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := st.TruncateWAL(); err == nil {
		t.Fatal("truncate after close succeeded")
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("definitely not a WAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Open(dir, wal.Options{}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("foreign file opened: %v", err)
	}
}

func snapshotFixture() *wal.Snapshot {
	return &wal.Snapshot{
		GenWatermark: 17,
		Datasets: []wal.DatasetSnapshot{
			{
				Name: "flights", Kind: "dot", Gen: 12,
				Table: &dataset.Table{
					Name:   "dot-like",
					Attrs:  []dataset.Attr{{Name: "a", HigherBetter: true}, {Name: "b"}},
					Rows:   [][]float64{{1, 2}, {3, 4}, {5, 6}},
					IDs:    []int{0, 2, 5},
					NextID: 6,
				},
			},
			{
				Name: "plain", Kind: "csv", Gen: 3,
				// No materialized IDs: the nil-ness must survive the round
				// trip, keeping restored tables bit-for-bit identical.
				Table: &dataset.Table{
					Name:  "plain",
					Attrs: []dataset.Attr{{Name: "x", HigherBetter: true}},
					Rows:  [][]float64{{0.25}, {0.75}},
				},
			},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, wal.Options{})
	if snap, err := st.ReadSnapshot(); snap != nil || err != nil {
		t.Fatalf("fresh dir: snap=%v err=%v", snap, err)
	}
	if _, ok := st.SnapshotTime(); ok {
		t.Fatal("snapshot time reported before any snapshot")
	}
	want := snapshotFixture()
	if err := st.WriteSnapshot(want); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.SnapshotTime(); !ok {
		t.Fatal("snapshot time missing after write")
	}
	got, err := st.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot round trip:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Datasets[1].Table.IDs != nil {
		t.Fatal("nil IDs materialized by the round trip")
	}
	// No stray temp file left behind by the atomic write.
	if _, err := os.Stat(filepath.Join(dir, "snapshot.bin.tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestSnapshotCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, wal.Options{})
	if err := st.WriteSnapshot(snapshotFixture()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadSnapshot(); err == nil {
		t.Fatal("corrupt snapshot read without error")
	}
}

func TestCacheFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, wal.Options{})
	if entries, err := st.ReadCache(); entries != nil || err != nil {
		t.Fatalf("fresh dir: entries=%v err=%v", entries, err)
	}
	want := []wal.CacheEntry{
		{Dataset: "flights", Gen: 12, K: 10, Algo: "2drrr", IDs: []int{3, 1, 4}, KSets: 99, Nodes: 7, Elapsed: 1500 * time.Microsecond},
		{Dataset: "flights", Gen: 12, K: -5, Algo: "mdrc", IDs: []int{2}, BestK: 42, Candidates: 120, Elapsed: time.Second},
	}
	if err := st.WriteCache(want); err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadCache()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCacheFileRejectsVersion1: testdata/cache_v1.bin is a warm-cache
// file in the format before version 2 dropped the shard fields, holding
// one sharded and one unsharded entry. ReadCache must refuse it rather
// than misread its fields.
func TestCacheFileRejectsVersion1(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "cache_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cache.bin"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := mustOpen(t, dir, wal.Options{}).ReadCache()
	if err == nil || !strings.Contains(err.Error(), "unknown cache entry version 1") {
		t.Fatalf("ReadCache of a version-1 file = %+v, %v; want the unknown-version error", entries, err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]wal.SyncPolicy{
		"always": wal.SyncAlways, "interval": wal.SyncInterval, "never": wal.SyncNever,
	} {
		got, err := wal.ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := wal.ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestSyncIntervalPolicyFlushes(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, wal.Options{Sync: wal.SyncInterval, SyncEvery: 5 * time.Millisecond})
	if _, err := st.Append(testRecords()[0]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the flush loop run at least once
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, wal.Options{})
	n := 0
	if _, err := st2.Replay(func(wal.Record) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}
