package service

import (
	"context"
	"encoding/json"
	"fmt"

	"rrr"
	"rrr/internal/delta"
	"rrr/internal/watch"
)

// WatchRequest identifies the stream a client wants: the representative
// of Dataset at rank target K under Algo ("" = auto). LastGen > 0 is a
// reconnect carrying the SSE Last-Event-ID — the newest generation the
// client saw — and asks to resume rather than restart.
type WatchRequest struct {
	Dataset string
	K       int
	Algo    string
	LastGen int64
}

// Watch opens one live-update stream. It validates the request, registers
// the subscription with the hub, and prepares the preamble the caller
// must hand to Subscription.Start once its transport is ready to write:
// either the suffix of events a reconnecting client missed (replayed from
// the topic journal) or a fresh snapshot event with the current
// representative. The snapshot solve goes through the singleflight cache,
// so watching a never-solved key triggers exactly one precompute shared
// with any concurrent requests; ctx bounds only this caller's wait on it.
//
// The subscription is registered *before* the snapshot is computed: a
// batch committing in between lands in the subscription's ring, and the
// drainer's generation filter discards whatever the snapshot already
// covers — no mutation can fall into a gap between snapshot and stream.
func (s *Service) Watch(ctx context.Context, req WatchRequest, sink func(watch.Event) error) (*watch.Subscription, []watch.Event, error) {
	if s.hub == nil {
		return nil, nil, fmt.Errorf("service: watch is disabled (start rrrd with -watch): %w", ErrBadRequest)
	}
	entry, err := s.registry.Get(req.Dataset)
	if err != nil {
		return nil, nil, err
	}
	if req.K <= 0 {
		return nil, nil, fmt.Errorf("service: k must be positive, got %d: %w", req.K, ErrBadRequest)
	}
	algo, err := resolveAlgo(entry, req.Algo)
	if err != nil {
		return nil, nil, err
	}
	topic := watch.Topic{Dataset: req.Dataset, K: req.K, Algo: string(algo)}
	sub, err := s.hub.Subscribe(topic, sink)
	if err != nil {
		return nil, nil, err
	}
	if req.LastGen > 0 {
		if missed, ok := s.hub.Replay(topic, req.LastGen); ok {
			return sub, missed, nil
		}
	}
	// Re-read the entry now that the subscription is live, so every
	// generation after the one being snapshotted reaches the ring.
	entry, err = s.registry.Get(req.Dataset)
	if err != nil {
		sub.Cancel()
		return nil, nil, err
	}
	res, err := s.solveEntry(ctx, entry, req.K, algo)
	if err != nil {
		sub.Cancel()
		return nil, nil, err
	}
	return sub, []watch.Event{snapshotEvent(topic, entry.Gen, res)}, nil
}

// CloseWatchers refuses new subscriptions and ends every live watch
// stream with a terminal closing event (buffered events drain first), and
// cancels in-flight watch-triggered recomputes. rrrd calls it before
// http.Server.Shutdown: each SSE handler unblocks when its subscription
// finishes, so streaming connections drain within the shutdown timeout
// instead of pinning Shutdown until their clients disconnect.
func (s *Service) CloseWatchers(reason string) {
	if s.hub == nil {
		return
	}
	s.watchCancel()
	s.hub.Close(closingEvent(reason))
}

// publishWatch turns one committed mutation batch into events, using the
// per-key classifications maintain produced. It runs synchronously on the
// mutation path but is non-blocking by construction: every publish is a
// ring offer, and the only expensive outcome — a full recompute for a
// recomputed watched topic — is detached onto its own goroutine.
func (s *Service) publishWatch(cur *Entry, ch *delta.Change, classes map[Key]delta.Class) {
	if s.hub == nil {
		return
	}
	for _, t := range s.hub.Topics(cur.Name) {
		key := Key{Dataset: cur.Name, Gen: ch.Gen, K: t.K, Algo: t.Algo}
		class, classified := classes[key]
		switch {
		case classified && class == delta.StillExact:
			// The cached answer was re-keyed to the new generation: a
			// heartbeat re-keys the client's view the same way, no
			// payload, no recompute.
			s.hub.Publish(t, generationEvent(t, ch))
		case classified && class == delta.Repaired:
			res, ok := s.cache.Peek(key)
			if !ok {
				// The repair raced against an invalidation; recompute.
				s.watchRecompute(t, key, ch, cur)
				continue
			}
			s.hub.Publish(t, representativeEvent(t, ch, delta.Repaired, res))
		default:
			// Recomputed — or a topic that was never cached at the
			// previous generation, so maintenance had nothing to classify.
			if s.hub.HasSubscribers(t) {
				s.watchRecompute(t, key, ch, cur)
			} else {
				// Nobody to push to: the topic's event chain breaks here,
				// so a later resume falls back to a fresh snapshot
				// instead of replaying across the unobserved change.
				s.hub.Break(t)
			}
		}
	}
}

// watchRecompute solves the watched key at the batch's generation on a
// detached goroutine and pushes the result. The solve joins the
// singleflight cache, so a concurrent request for the same key (or a
// racing revalidation that claimed it) shares one computation. It runs
// under the service's watch context — canceled by CloseWatchers, not tied
// to the mutating request.
func (s *Service) watchRecompute(t watch.Topic, key Key, ch *delta.Change, cur *Entry) {
	go func() {
		res, err := s.solveEntry(s.watchCtx, cur, t.K, rrr.Algorithm(t.Algo))
		if err != nil {
			s.hub.Break(t)
			return
		}
		s.hub.Publish(t, representativeEvent(t, ch, delta.Recomputed, res))
	}()
}

// watchEventBody is the JSON payload shared by all watch event types;
// omitempty trims each type down to its own grammar (DESIGN.md §10).
type watchEventBody struct {
	Dataset        string  `json:"dataset,omitempty"`
	K              int     `json:"k,omitempty"`
	Algorithm      string  `json:"algorithm,omitempty"`
	Generation     int64   `json:"generation,omitempty"`
	PrevGeneration int64   `json:"prev_generation,omitempty"`
	Class          string  `json:"class,omitempty"`
	Size           int     `json:"size,omitempty"`
	IDs            []int   `json:"ids,omitempty"`
	Cached         bool    `json:"cached,omitempty"`
	ComputeMS      float64 `json:"compute_ms,omitempty"`
	KSets          int     `json:"ksets,omitempty"`
	Nodes          int     `json:"nodes,omitempty"`
	Candidates     int     `json:"candidates,omitempty"`
	Reason         string  `json:"reason,omitempty"`
}

// marshalWatch encodes a payload struct; it cannot fail on these field
// types, so the error is deliberately unreachable.
func marshalWatch(body watchEventBody) []byte {
	data, err := json.Marshal(body)
	if err != nil {
		panic("service: watch payload marshal: " + err.Error())
	}
	return data
}

func snapshotEvent(t watch.Topic, gen int64, res CachedResult) watch.Event {
	return watch.Event{Type: watch.TypeSnapshot, Gen: gen, Data: marshalWatch(watchEventBody{
		Dataset:    t.Dataset,
		K:          t.K,
		Algorithm:  t.Algo,
		Generation: gen,
		Size:       len(res.IDs),
		IDs:        res.IDs,
		Cached:     res.Cached,
		ComputeMS:  float64(res.Elapsed) / 1e6,
		KSets:      res.Stats.KSets,
		Nodes:      res.Stats.Nodes,
	})}
}

func generationEvent(t watch.Topic, ch *delta.Change) watch.Event {
	return watch.Event{Type: watch.TypeGeneration, Gen: ch.Gen, PrevGen: ch.PrevGen, Data: marshalWatch(watchEventBody{
		Dataset:        t.Dataset,
		K:              t.K,
		Generation:     ch.Gen,
		PrevGeneration: ch.PrevGen,
		Class:          delta.StillExact.String(),
	})}
}

func representativeEvent(t watch.Topic, ch *delta.Change, class delta.Class, res CachedResult) watch.Event {
	return watch.Event{Type: watch.TypeRepresentative, Gen: ch.Gen, PrevGen: ch.PrevGen, Data: marshalWatch(watchEventBody{
		Dataset:        t.Dataset,
		K:              t.K,
		Algorithm:      t.Algo,
		Generation:     ch.Gen,
		PrevGeneration: ch.PrevGen,
		Class:          class.String(),
		Size:           len(res.IDs),
		IDs:            res.IDs,
		ComputeMS:      float64(res.Elapsed) / 1e6,
		KSets:          res.Stats.KSets,
		Nodes:          res.Stats.Nodes,
		Candidates:     res.Stats.Candidates,
	})}
}

func closingEvent(reason string) watch.Event {
	return watch.Event{Type: watch.TypeClosing, Data: marshalWatch(watchEventBody{Reason: reason})}
}
