package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rrr/internal/delta"
	"rrr/internal/wal"
)

// errPersist marks durability failures on the mutation path, so the HTTP
// layer reports them as server errors rather than bad requests.
var errPersist = errors.New("persist")

// AttachWAL makes every subsequent mutation batch durable: the batch's
// WAL record is appended (and, under the store's fsync policy, synced)
// before the batch commits. Attach before serving traffic.
func (r *Registry) AttachWAL(st *wal.Store, m *Metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wal = st
	r.metrics = m
}

// GenWatermark returns the highest generation the registry has handed
// out. Snapshots persist it so generations minted after a restart never
// collide with ones burned before it — the uniqueness cache keys rely on.
func (r *Registry) GenWatermark() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nextGen
}

// Restore populates an empty registry from a snapshot: every dataset
// comes back at its persisted generation with its stable tuple IDs and
// NextID watermark intact, and the generation watermark resumes past
// everything the previous process handed out. Restoring into a non-empty
// registry is an error — recovery happens before preloading.
func (r *Registry) Restore(snap *wal.Snapshot) error {
	if snap == nil {
		return nil
	}
	r.mu.RLock()
	populated := len(r.entries) != 0
	deltaOn := r.delta
	r.mu.RUnlock()
	if populated {
		return errors.New("service: restore into a non-empty registry")
	}
	restored := make([]*Entry, 0, len(snap.Datasets))
	seen := make(map[string]bool, len(snap.Datasets))
	for _, ds := range snap.Datasets {
		if seen[ds.Name] {
			return fmt.Errorf("service: snapshot holds dataset %q twice", ds.Name)
		}
		seen[ds.Name] = true
		if ds.Gen > snap.GenWatermark {
			return fmt.Errorf("service: snapshot dataset %q at generation %d exceeds the watermark %d", ds.Name, ds.Gen, snap.GenWatermark)
		}
		e, err := newEntry(ds.Name, ds.Kind, ds.Table, ds.Gen, deltaOn)
		if err != nil {
			return fmt.Errorf("service: restoring dataset %q: %w", ds.Name, err)
		}
		restored = append(restored, e)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) != 0 {
		return errors.New("service: restore into a non-empty registry")
	}
	for _, e := range restored {
		r.entries[e.Name] = e
	}
	if snap.GenWatermark > r.nextGen {
		r.nextGen = snap.GenWatermark
	}
	return nil
}

// replayRecord re-applies one WAL record during recovery, reporting
// whether it was applied. Replay is deterministic: the record carries the
// batch as requested, and ID assignment, not-found deletes and
// normalization are all functions of the table state, so the recovered
// entry is bit-for-bit the one the original mutation produced.
//
// Records are skipped in two benign cases: a dataset the snapshot does
// not hold (registered after the last snapshot and lost with the crash —
// its mutations have nothing to apply to), and a generation at or below
// the entry's (the record predates the snapshot; possible when a crash
// interrupted the snapshot-then-truncate sequence between its two steps).
// A generation *gap* is corruption the CRC cannot see, and fails loudly.
func (r *Registry) replayRecord(rec wal.Record) (bool, error) {
	r.mu.RLock()
	e, ok := r.entries[rec.Dataset]
	r.mu.RUnlock()
	if !ok {
		return false, nil
	}
	if e.Log == nil {
		return false, fmt.Errorf("service: WAL holds mutations for dataset %q but delta maintenance is disabled (start rrrd with -delta)", rec.Dataset)
	}
	if rec.Gen <= e.Gen {
		return false, nil
	}
	if rec.PrevGen != e.Gen {
		return false, fmt.Errorf("service: WAL gap on dataset %q: record continues generation %d but the dataset is at %d", rec.Dataset, rec.PrevGen, e.Gen)
	}
	ch, err := e.Log.Apply(delta.Batch{Append: rec.Append, Delete: rec.Delete}, func() int64 { return rec.Gen }, nil)
	if err != nil {
		return false, fmt.Errorf("service: replaying generation %d of dataset %q: %w", rec.Gen, rec.Dataset, err)
	}
	r.mu.Lock()
	r.entries[rec.Dataset] = e.successor(ch)
	if rec.Gen > r.nextGen {
		r.nextGen = rec.Gen
	}
	r.mu.Unlock()
	return true, nil
}

// AttachStore wires a wal.Store into the service: mutations become
// write-ahead durable immediately; call Recover to load persisted state
// and Persist to snapshot it.
func (s *Service) AttachStore(st *wal.Store) {
	s.store = st
	s.registry.AttachWAL(st, s.metrics)
}

// Store returns the attached store, nil when the service is memory-only.
func (s *Service) Store() *wal.Store { return s.store }

// Recovery summarizes one boot-time recovery pass.
type Recovery struct {
	// SnapshotDatasets counts datasets restored from the snapshot file
	// (zero when no snapshot exists — a first boot).
	SnapshotDatasets int
	// ReplayedBatches counts WAL records re-applied on top of the
	// snapshot; SkippedRecords counts records benignly ignored (datasets
	// the snapshot predates, generations it already contains).
	ReplayedBatches int
	SkippedRecords  int
	// TornTail reports that the WAL ended mid-record — the expected shape
	// after a crash — and DroppedBytes how many trailing bytes were
	// discarded after the last intact record.
	TornTail     bool
	DroppedBytes int64
	// WarmedAnswers counts cached answers readmitted from the warm-cache
	// file whose generations still match the recovered datasets.
	WarmedAnswers int
}

// Recover loads the attached store's state into an empty service: restore
// the snapshot, replay the WAL's intact prefix on top of it, then readmit
// warm-cache answers that still match a live (dataset, generation) pair.
// Recovery must precede preloading and serving. A corrupt snapshot or a
// WAL contradicting it fails loudly — silently serving wrong data is the
// one outcome durability must never produce; a torn WAL tail, in
// contrast, is the expected crash shape and is cleanly truncated.
func (s *Service) Recover(ctx context.Context) (*Recovery, error) {
	if s.store == nil {
		return nil, errors.New("service: no store attached")
	}
	rec := &Recovery{}
	snap, err := s.store.ReadSnapshot()
	if err != nil {
		return nil, err
	}
	if snap != nil {
		if err := s.registry.Restore(snap); err != nil {
			return nil, err
		}
		rec.SnapshotDatasets = len(snap.Datasets)
		if ts, ok := s.store.SnapshotTime(); ok {
			s.metrics.snapshotAt(ts)
		}
	}
	res, err := s.store.Replay(func(r wal.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		applied, err := s.registry.replayRecord(r)
		if err != nil {
			return err
		}
		if applied {
			rec.ReplayedBatches++
		} else {
			rec.SkippedRecords++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec.TornTail, rec.DroppedBytes = res.TornTail, res.DroppedBytes
	s.metrics.add(replayedBatches, rec.ReplayedBatches)

	// The warm cache is an optimization, never a source of truth: an
	// unreadable file — including one in an older format — costs
	// recomputation, and entries are readmitted only when their (dataset,
	// generation) still matches what this process serves — anything else
	// would hand out answers computed against other data.
	entries, err := s.store.ReadCache()
	if err != nil {
		entries = nil
	}
	for _, ce := range entries {
		e, err := s.registry.Get(ce.Dataset)
		if err != nil || e.Gen != ce.Gen {
			continue
		}
		key := Key{Dataset: ce.Dataset, Gen: ce.Gen, K: ce.K, Algo: ce.Algo}
		stats := ResultStats{KSets: ce.KSets, Nodes: ce.Nodes, BestK: ce.BestK, Candidates: ce.Candidates}
		if s.cache.Put(key, ce.IDs, stats, ce.Elapsed) {
			rec.WarmedAnswers++
		}
	}
	s.metrics.add(warmedAnswers, rec.WarmedAnswers)
	return rec, nil
}

// Persist captures the current state into the store: a registry snapshot,
// the warm-cache file, and — once both are durable — a WAL truncation,
// since every record's effect is now inside the snapshot. The caller must
// have quiesced mutations (rrrd persists after the HTTP server has shut
// down); a batch applied between the capture and the truncation would be
// lost.
func (s *Service) Persist() error {
	if s.store == nil {
		return errors.New("service: no store attached")
	}
	snap := &wal.Snapshot{GenWatermark: s.registry.GenWatermark()}
	for _, e := range s.registry.Entries() {
		snap.Datasets = append(snap.Datasets, wal.DatasetSnapshot{
			Name:  e.Name,
			Kind:  e.Kind,
			Gen:   e.Gen,
			Table: e.Table,
		})
	}
	if err := s.store.WriteSnapshot(snap); err != nil {
		return err
	}
	var warm []wal.CacheEntry
	for _, ce := range s.cache.CompletedEntries() {
		warm = append(warm, wal.CacheEntry{
			Dataset:    ce.Key.Dataset,
			Gen:        ce.Key.Gen,
			K:          ce.Key.K,
			Algo:       ce.Key.Algo,
			IDs:        ce.Result.IDs,
			KSets:      ce.Result.Stats.KSets,
			Nodes:      ce.Result.Stats.Nodes,
			BestK:      ce.Result.Stats.BestK,
			Candidates: ce.Result.Stats.Candidates,
			Elapsed:    ce.Result.Elapsed,
		})
	}
	if err := s.store.WriteCache(warm); err != nil {
		return err
	}
	if err := s.store.TruncateWAL(); err != nil {
		return err
	}
	if s.hub != nil {
		// The WAL no longer holds the generations behind the snapshot, so
		// the watch journals must not promise to replay across them: a
		// Last-Event-ID from before this point now gets a fresh snapshot.
		s.hub.ResetJournals()
	}
	s.metrics.snapshotAt(time.Now())
	return nil
}
