package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"rrr/internal/core"
	"rrr/internal/dataset"
	"rrr/internal/delta"
	"rrr/internal/trace"
	"rrr/internal/wal"
)

// Entry is one registered dataset at one generation: the raw table it was
// loaded from and the normalized point cloud the algorithms run on. An
// Entry is an immutable snapshot; re-registering a name is an error
// (callers must Remove first), and mutations do not touch the entry —
// they append to its mutation log and swap in a successor entry at the
// next generation, so requests holding an entry always see a consistent
// (table, data, gen) triple.
type Entry struct {
	Name  string
	Table *dataset.Table
	Data  *core.Dataset
	// Kind records how the dataset came to be: a generator kind (dot, bn,
	// independent, correlated, anticorrelated), "csv" for uploads, or
	// "table" for direct registration.
	Kind string
	// Gen uniquely identifies this snapshot within the registry's
	// lifetime. Cache keys include it, so a dataset removed and
	// re-registered under the same name — or mutated to a new generation —
	// can never be served results computed against other data, even
	// results whose computation was in flight across the change.
	Gen int64
	// Log is the dataset's mutation log, shared by every generation of the
	// same registration. Nil when the registry was built without delta
	// maintenance; such datasets are immutable, the historical behavior.
	Log *delta.Log
}

// Registry is the concurrency-safe name → dataset map behind the daemon.
// Loading and normalizing are done by the caller before insertion, so the
// registry itself only ever holds ready-to-serve entries.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	nextGen int64
	// delta makes Register attach a mutation log to every entry, enabling
	// Mutate. Set before any registration (the daemon's -delta flag).
	delta bool
	// wal, when attached, receives every mutation batch before it commits
	// (write-ahead); metrics counts the appends. Set once at boot.
	wal     *wal.Store
	metrics *Metrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry)}
}

// EnableDeltaMaintenance makes every subsequently registered dataset carry
// a mutation log, so Mutate can apply append/delete batches to it.
func (r *Registry) EnableDeltaMaintenance() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.delta = true
}

// Register normalizes the table and stores it under the given name with
// kind "table".
func (r *Registry) Register(name string, t *dataset.Table) (*Entry, error) {
	return r.register(name, t, "table")
}

func (r *Registry) register(name string, t *dataset.Table, kind string) (*Entry, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	// Normalization is the expensive part; do it outside the registry
	// lock. The generation is reserved up front — a failed registration
	// wastes one, which the monotone counter absorbs harmlessly.
	e, err := newEntry(name, kind, t, r.reserveGen(), r.deltaEnabled())
	if err != nil {
		return nil, fmt.Errorf("service: dataset %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return nil, fmt.Errorf("service: dataset %q already registered: %w", name, ErrConflict)
	}
	r.entries[name] = e
	return e, nil
}

// newEntry builds a registration's first entry at gen: with a mutation
// log (which normalizes the table for its first snapshot) when withLog,
// otherwise with a plain normalize. Register and Restore share it.
func newEntry(name, kind string, t *dataset.Table, gen int64, withLog bool) (*Entry, error) {
	e := &Entry{Name: name, Table: t, Kind: kind, Gen: gen}
	var err error
	if withLog {
		if e.Log, err = delta.NewLog(t, gen); err != nil {
			return nil, err
		}
		_, e.Data, _ = e.Log.Snapshot()
	} else if e.Data, err = t.Normalize(); err != nil {
		return nil, err
	}
	return e, nil
}

// successor is the entry ch advances e to: the same registration and
// log at the batch's generation. Mutate and WAL replay share it.
func (e *Entry) successor(ch *delta.Change) *Entry {
	return &Entry{Name: e.Name, Table: ch.Table, Data: ch.After, Kind: e.Kind, Gen: ch.Gen, Log: e.Log}
}

func (r *Registry) deltaEnabled() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.delta
}

// RegisterCSV parses a CSV stream in the repository convention (header
// "Name:+" / "Name:-", optional leading "id" column) and registers it.
func (r *Registry) RegisterCSV(name string, csv io.Reader) (*Entry, error) {
	t, err := dataset.ReadCSV(csv, name)
	if err != nil {
		return nil, fmt.Errorf("service: dataset %q: %v: %w", name, err, ErrBadRequest)
	}
	return r.register(name, t, "csv")
}

// reserveGen hands out the next registry-unique generation. It is
// passed into Log.Apply, which invokes it under the log's lock so that
// per-dataset generation order matches batch order.
func (r *Registry) reserveGen() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextGen++
	return r.nextGen
}

// Mutate applies one append/delete batch to the named dataset's mutation
// log and swaps in the next-generation entry under the same name,
// returning the new entry and the applied change (whose PrevGen keys the
// cached answers the maintainer will classify). Mutations of one dataset
// are serialized by its log; the registry lock is held only to reserve
// the generation and swap the entry, so mutating one dataset never
// blocks lookups of the others for the O(n·d) apply. ctx carries only the
// request's trace (the WAL append records a span against it); the
// mutation itself is never canceled mid-apply.
func (r *Registry) Mutate(ctx context.Context, name string, b delta.Batch) (*Entry, *delta.Change, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("service: dataset %q: %w", name, ErrNotFound)
	}
	if e.Log == nil {
		return nil, nil, fmt.Errorf("service: dataset %q is immutable: delta maintenance is disabled (start rrrd with -delta): %w", name, ErrBadRequest)
	}
	// The commit hook runs under the log's lock after the change is built
	// but before it takes effect: the WAL record is durable before any
	// observer can see the new generation, and per-dataset records land in
	// generation order because the lock serializes them. A failed append
	// rejects the batch with the log unchanged — write-ahead, strictly.
	var commit func(*delta.Change) error
	r.mu.RLock()
	st, metrics := r.wal, r.metrics
	r.mu.RUnlock()
	if st != nil {
		rec, parent := trace.FromContext(ctx)
		commit = func(ch *delta.Change) error {
			sid := rec.Start("wal_append", parent)
			defer rec.End(sid)
			n, err := st.Append(wal.Record{
				Dataset: name,
				PrevGen: ch.PrevGen,
				Gen:     ch.Gen,
				Append:  b.Append,
				Delete:  b.Delete,
			})
			if err != nil {
				return fmt.Errorf("%w: %v", errPersist, err)
			}
			metrics.add(walAppends, 1)
			metrics.add(walBytes, n)
			return nil
		}
	}
	ch, err := e.Log.Apply(b, r.reserveGen, commit)
	if err != nil {
		if errors.Is(err, errPersist) {
			// A durability failure is the server's problem, not the
			// client's: surface it as an internal error, never a 400.
			return nil, nil, fmt.Errorf("service: dataset %q: %v", name, err)
		}
		return nil, nil, fmt.Errorf("service: dataset %q: %v: %w", name, err, ErrBadRequest)
	}
	next := e.successor(ch)
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.entries[name]
	if !ok || cur.Log != e.Log {
		// Removed or re-registered while the batch was applying: the log
		// we mutated is orphaned and its snapshots unreachable. Report it
		// rather than resurrect the old name.
		return nil, nil, fmt.Errorf("service: dataset %q was removed during the mutation: %w", name, ErrConflict)
	}
	if cur.Gen < ch.Gen {
		// A racing later batch may already have swapped in a newer
		// snapshot (log order ⇒ generation order); never regress it.
		r.entries[name] = next
	}
	return next, ch, nil
}

// Bounds on request-driven synthetic generation: a 60-byte POST must not
// be able to allocate an arbitrarily large table. The row cap comfortably
// covers the paper's largest dataset (457,892 rows); the attribute cap is
// far above anything the algorithms handle in reasonable time.
const (
	maxGenerateRows = 2_000_000
	maxGenerateDims = 32
)

// Generate builds one of the repository's synthetic datasets and registers
// it. Kind is one of dot, bn, independent, correlated, anticorrelated;
// dims > 0 projects onto the first dims attributes (the experiments'
// device). Name and size are validated before any generation work.
func (r *Registry) Generate(name, kind string, n, dims int, seed int64) (*Entry, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	t, err := GenerateTable(kind, n, dims, seed)
	if err != nil {
		return nil, err
	}
	return r.register(name, t, strings.ToLower(kind))
}

// GenerateTable builds a synthetic table without registering it, enforcing
// the service's generation bounds.
func GenerateTable(kind string, n, dims int, seed int64) (*dataset.Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("service: dataset size must be positive, got %d: %w", n, ErrBadRequest)
	}
	if n > maxGenerateRows {
		return nil, fmt.Errorf("service: dataset size %d exceeds the %d-row limit: %w", n, maxGenerateRows, ErrBadRequest)
	}
	if dims > maxGenerateDims {
		return nil, fmt.Errorf("service: %d attributes exceeds the %d-attribute limit: %w", dims, maxGenerateDims, ErrBadRequest)
	}
	t, err := dataset.ByKind(kind, n, dims, seed)
	if err != nil {
		return nil, fmt.Errorf("service: %v: %w", err, ErrBadRequest)
	}
	return t, nil
}

// Get returns the entry registered under name.
func (r *Registry) Get(name string) (*Entry, error) {
	e, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("service: dataset %q: %w", name, ErrNotFound)
	}
	return e, nil
}

// Lookup returns the entry registered under name without constructing a
// not-found error — the serving fast path's allocation-free variant of
// Get.
func (r *Registry) Lookup(name string) (*Entry, bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	return e, ok
}

// Remove drops the entry registered under name, reporting whether it
// existed. The caller owns invalidating any cached results for it.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[name]
	delete(r.entries, name)
	return ok
}

// Names lists the registered dataset names in sorted order.
func (r *Registry) Names() []string {
	entries := r.Entries()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// Entries returns a consistent snapshot of all registered datasets,
// sorted by name.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("service: empty dataset name: %w", ErrBadRequest)
	}
	if strings.ContainsAny(name, " \t\n/?&=") {
		return fmt.Errorf("service: dataset name %q contains reserved characters: %w", name, ErrBadRequest)
	}
	return nil
}
