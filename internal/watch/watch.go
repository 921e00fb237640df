// Package watch is the live-update push subsystem of the RRR serving
// layer: a per-topic event hub fed by the mutation commit path, fanning
// out to subscribers through fixed-size per-subscriber ring buffers
// drained by dedicated writer goroutines.
//
// The design goal is isolation of the producer: publishing an event is a
// bounded amount of work — copy one small struct into each subscriber's
// preallocated ring slot and signal its drainer — so one slow consumer
// can never backpressure the mutation path or its sibling subscribers.
// A subscriber whose ring fills is dropped: it receives a terminal
// "overflow" event once its drainer catches up, and the hub counts the
// drop. Event payloads are marshaled once by the publisher and shared as
// immutable byte slices across every subscriber, so fan-out cost does not
// multiply with encoding cost.
//
// The hub also keeps a bounded per-topic journal of published events,
// chained by (PrevGen, Gen). A reconnecting subscriber presenting the
// last generation it saw resumes by replaying the missed suffix when the
// chain still covers it; any gap — an unwatched stale batch, journal
// eviction, a journal reset after the WAL was snapshotted and truncated —
// breaks the chain and forces the caller to fall back to a fresh
// snapshot, so replay can never silently skip state.
package watch

import "strconv"

// Topic identifies one watchable stream: the representative of Dataset at
// rank target K under the resolved algorithm Algo. It mirrors the serving
// cache's key space minus the generation (a watcher follows the key
// across generations — that is the point).
type Topic struct {
	Dataset string
	K       int
	Algo    string
}

// Event types, in the order a subscriber can observe them: a snapshot (or
// a replayed suffix) first, then generation heartbeats and representative
// pushes as mutation batches land, and at most one terminal overflow or
// closing event before the stream ends.
const (
	// TypeSnapshot carries the current representative and generation; the
	// first event of every non-resumed stream.
	TypeSnapshot = "snapshot"
	// TypeGeneration is the still-exact heartbeat: the dataset moved to a
	// new generation but the watched representative was proven unchanged
	// (re-keyed in cache, no recompute).
	TypeGeneration = "generation"
	// TypeRepresentative pushes new representative IDs after a batch
	// repaired or recomputed the watched answer.
	TypeRepresentative = "representative"
	// TypeOverflow is terminal: the subscriber's ring filled while its
	// writer was blocked, events were lost, and the stream ends. Clients
	// reconnect (a resume replays from the journal or falls back to a
	// fresh snapshot).
	TypeOverflow = "overflow"
	// TypeClosing is terminal: the server is shutting down (or the dataset
	// was removed) and closes the stream deliberately.
	TypeClosing = "closing"
)

// Event is one unit of the stream. Gen is the dataset generation the
// event describes (0 for terminal events, which describe no generation)
// and doubles as the SSE event ID clients resume from. PrevGen chains
// events for journal replay: an event continues the journal only if its
// PrevGen equals the newest recorded Gen. Data is the pre-marshaled JSON
// payload, shared read-only across all subscribers of the topic.
type Event struct {
	Type    string
	Gen     int64
	PrevGen int64
	Data    []byte
}

// AppendSSE appends the event in Server-Sent Events wire format to dst
// and returns the extended slice — append-style so a drainer can reuse
// one scratch buffer across events. Payloads must be single-line (JSON
// without indentation); the id field is omitted for terminal events
// (Gen 0) so clients keep resuming from the last data-bearing event.
func AppendSSE(dst []byte, ev Event) []byte {
	if ev.Gen > 0 {
		dst = append(dst, "id: "...)
		dst = strconv.AppendInt(dst, ev.Gen, 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, "event: "...)
	dst = append(dst, ev.Type...)
	dst = append(dst, '\n')
	if len(ev.Data) > 0 {
		dst = append(dst, "data: "...)
		dst = append(dst, ev.Data...)
		dst = append(dst, '\n')
	}
	return append(dst, '\n')
}

// Counters is the hub's reporting surface; the serving layer's metrics
// implement it. Implementations must be safe for concurrent use.
type Counters interface {
	// WatchSubscribers moves the live-subscriber gauge by delta (+1 on
	// subscribe, -1 when the stream ends for any reason).
	WatchSubscribers(delta int)
	// WatchEvents counts events enqueued to subscribers (fan-out volume:
	// one publish to N subscribers counts N).
	WatchEvents(n int)
	// WatchDropped counts subscribers dropped by ring overflow.
	WatchDropped()
	// WatchResumed counts reconnects served by journal replay.
	WatchResumed()
}

// nopCounters keeps the hub's hot path branch-free when no metrics are
// attached.
type nopCounters struct{}

func (nopCounters) WatchSubscribers(int) {}
func (nopCounters) WatchEvents(int)      {}
func (nopCounters) WatchDropped()        {}
func (nopCounters) WatchResumed()        {}
