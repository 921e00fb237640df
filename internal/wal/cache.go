package wal

import (
	"fmt"
	"time"
)

const (
	cacheMagic = "RRRCACH\n"
	// cacheVersion 2 dropped version 1's shard fields. A version-1 file
	// may hold sharded MDRRR answers, which can differ from unsharded ones,
	// so ReadCache rejects it rather than misreading it.
	cacheVersion = 2
)

// CacheEntry is one persisted warm-cache answer: the cache key fields
// (dataset, generation, rank target — negative K encodes the dual size
// query, algorithm), the representative IDs, and the work counters the
// original computation reported. The warm-cache file is an optimization,
// not a source of truth: the service only readmits an entry whose
// generation still matches the live dataset, so a stale or missing file
// costs recomputation, never correctness.
type CacheEntry struct {
	Dataset string
	Gen     int64
	K       int
	Algo    string

	IDs []int

	KSets      int
	Nodes      int
	BestK      int
	Candidates int
	Elapsed    time.Duration
}

func encodeCacheEntry(ce CacheEntry) ([]byte, error) {
	e := &enc{}
	e.u8(cacheVersion)
	e.str(ce.Dataset)
	e.i64(ce.Gen)
	e.i64(int64(ce.K))
	e.str(ce.Algo)
	e.u32(uint32(len(ce.IDs)))
	for _, id := range ce.IDs {
		e.i64(int64(id))
	}
	e.i64(int64(ce.KSets))
	e.i64(int64(ce.Nodes))
	e.i64(int64(ce.BestK))
	e.i64(int64(ce.Candidates))
	e.i64(int64(ce.Elapsed))
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

func decodeCacheEntry(p []byte) (CacheEntry, error) {
	d := &dec{b: p}
	if v := d.u8(); d.err == nil && v != cacheVersion {
		return CacheEntry{}, fmt.Errorf("wal: unknown cache entry version %d", v)
	}
	var ce CacheEntry
	ce.Dataset = d.str()
	ce.Gen = d.i64()
	ce.K = int(d.i64())
	ce.Algo = d.str()
	if n := d.count(8, "id"); n > 0 {
		ce.IDs = make([]int, n)
		for i := range ce.IDs {
			ce.IDs[i] = int(d.i64())
		}
	}
	ce.KSets = int(d.i64())
	ce.Nodes = int(d.i64())
	ce.BestK = int(d.i64())
	ce.Candidates = int(d.i64())
	ce.Elapsed = time.Duration(d.i64())
	if err := d.done(); err != nil {
		return CacheEntry{}, err
	}
	return ce, nil
}

// WriteCache atomically replaces the warm-cache file.
func (s *Store) WriteCache(entries []CacheEntry) error {
	buf := append([]byte(nil), cacheMagic...)
	for _, ce := range entries {
		payload, err := encodeCacheEntry(ce)
		if err != nil {
			return err
		}
		buf = appendFrame(buf, payload)
	}
	return s.writeFileAtomic(cacheFile, buf)
}

// ReadCache loads the warm-cache file; (nil, nil) when none exists.
func (s *Store) ReadCache() ([]CacheEntry, error) {
	payloads, ok, err := s.readFramedFile(cacheFile, cacheMagic)
	if err != nil || !ok {
		return nil, err
	}
	entries := make([]CacheEntry, 0, len(payloads))
	for i, p := range payloads {
		ce, err := decodeCacheEntry(p)
		if err != nil {
			return nil, fmt.Errorf("wal: %s entry %d: %w", cacheFile, i, err)
		}
		entries = append(entries, ce)
	}
	return entries, nil
}
