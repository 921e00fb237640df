package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rrr"
	"rrr/internal/delta"
	"rrr/internal/service"
	"rrr/internal/watch"
)

const (
	kindRead   = "read"
	kindMutate = "mutate"
	kindPush   = "push"
)

// watcher is the workload's one SSE /v1/watch subscriber: it records when
// the event for each generation arrived.
type watcher struct {
	mu      sync.Mutex
	arrived map[int64]time.Time
	err     error
	ping    chan struct{}
	cancel  context.CancelFunc
	done    chan struct{}
}

// subscribe opens the watch stream and returns once its snapshot event
// has arrived.
func subscribe(ctx context.Context, d *daemon, name string, k int) (*watcher, error) {
	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, fmt.Sprintf("%s/v1/watch?dataset=%s&k=%d", d.base, name, k), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := d.stream.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	w := newWatcher(cancel)
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		var gen int64
		var typ string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				gen, _ = strconv.ParseInt(line[4:], 10, 64)
			case strings.HasPrefix(line, "event: "):
				typ = line[7:]
			case line == "":
				w.event(typ, gen)
				gen, typ = 0, ""
			}
		}
		w.mu.Lock()
		if w.err == nil && sctx.Err() == nil {
			w.err = fmt.Errorf("watch stream closed: %v", sc.Err())
		}
		w.mu.Unlock()
		select {
		case w.ping <- struct{}{}:
		default:
		}
	}()
	if _, err := w.wait(ctx, -1, 10*time.Second); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func newWatcher(cancel context.CancelFunc) *watcher {
	return &watcher{arrived: map[int64]time.Time{}, ping: make(chan struct{}, 1), cancel: cancel, done: make(chan struct{})}
}

// event records one watch event as it arrives.
func (w *watcher) event(typ string, gen int64) {
	now := time.Now()
	w.mu.Lock()
	switch typ {
	case watch.TypeSnapshot, watch.TypeGeneration, watch.TypeRepresentative:
		w.arrived[gen] = now
	default:
		w.err = fmt.Errorf("watch stream ended with a %q event", typ)
	}
	w.mu.Unlock()
	select {
	case w.ping <- struct{}{}:
	default:
	}
}

// wait returns when the event for generation gen arrived (gen < 0: any
// event, the snapshot).
func (w *watcher) wait(ctx context.Context, gen int64, timeout time.Duration) (time.Time, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		w.mu.Lock()
		at, ok := w.arrived[gen]
		if gen < 0 && len(w.arrived) > 0 {
			ok = true
		}
		err := w.err
		w.mu.Unlock()
		switch {
		case ok:
			return at, nil
		case err != nil:
			return time.Time{}, err
		}
		select {
		case <-w.ping:
		case <-deadline.C:
			return time.Time{}, fmt.Errorf("no watch event for generation %d within %v", gen, timeout)
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		}
	}
}

func (w *watcher) close() {
	w.cancel()
	<-w.done
}

// churnRun is the churn workload's state across set-up and timed phases.
type churnRun struct {
	b    *bench
	d    *daemon
	w    *watcher
	live []int
	// ops records every timed operation in the order the daemon served
	// it, for the in-process replay.
	ops     []churnDone
	lastGen int64
	// due maps each mutation's generation to its due time; pushes are the
	// phase's due-to-watch-event times in ms.
	due    map[int64]time.Time
	pushes []float64
}

// churnDone is one served churn operation: a read of churnKs[read], or
// (read < 0) a mutation batch and the tuple ID an append was given.
type churnDone struct {
	read     int
	batch    delta.Batch
	assigned int
}

type mutationBody struct {
	Generation int64 `json:"generation"`
	Tuples     []struct {
		ID     int    `json:"id"`
		Status string `json:"status"`
	} `json:"tuples"`
}

// churnSetup starts rrrd with delta maintenance, the watch hub and a
// fresh data directory, caches every churnKs key and subscribes.
func (b *bench) churnSetup(ctx context.Context, rep *int) (*churnRun, error) {
	*rep++
	dir := filepath.Join(b.dir, fmt.Sprintf("data-%d", *rep))
	d, err := startDaemon(ctx, b.dir, 2, "-delta", "-watch", "-data-dir", dir, "-fsync", "always")
	if err != nil {
		return nil, err
	}
	c := &churnRun{b: b, d: d, due: map[int64]time.Time{}}
	if err := d.register(ctx, "churn", churnData); err != nil {
		d.stop()
		return nil, err
	}
	for _, k := range churnKs {
		if _, err := d.do(ctx, http.MethodGet, fmt.Sprintf("/v1/representative?dataset=churn&k=%d", k), nil, nil); err != nil {
			d.stop()
			return nil, err
		}
	}
	if c.w, err = subscribe(ctx, d, "churn", churnWatchK); err != nil {
		d.stop()
		return nil, err
	}
	c.live = make([]int, churnData.n)
	for i := range c.live {
		c.live[i] = i
	}
	return c, nil
}

func (c *churnRun) stop() {
	c.w.close()
	c.d.stop()
}

// phase runs the seeded operation stream for length over one connection,
// in due-time order.
func (c *churnRun) phase(ctx context.Context, seed int64, length time.Duration, traced bool) (step, error) {
	ops, err := newChurnOps(seed, length)
	if err != nil {
		return step{}, err
	}
	b := c.b
	reqs := make([]int, len(ops))
	if traced {
		for i, op := range ops {
			reqs[i] = b.tr.request(churnKind(op))
		}
	}
	start := time.Now().Add(time.Millisecond)
	samples := openLoop(ctx, start, len(ops), 1, func(i int) time.Duration { return ops[i].due }, func(ctx context.Context, i int) (string, error) {
		op := ops[i]
		var hdr http.Header
		if traced {
			hdr = http.Header{"Traceparent": {b.tr.traceparent(reqs[i])}}
		}
		if !op.mutate {
			_, err := c.d.do(ctx, http.MethodGet, fmt.Sprintf("/v1/representative?dataset=churn&k=%d", churnKs[op.k]), nil, hdr)
			c.ops = append(c.ops, churnDone{read: op.k})
			return kindRead, err
		}
		return kindMutate, c.mutate(ctx, op, start.Add(op.due), hdr)
	})
	if traced {
		for i, s := range samples {
			b.tr.record(reqs[i], 0, layerSocket, s.sent, s.done)
		}
	}
	for _, s := range samples {
		b.attempt(s.err)
	}
	// Every mutation's watch event, in generation order; the last one may
	// still be in flight.
	gens := make([]int64, 0, len(c.due))
	for gen := range c.due {
		gens = append(gens, gen)
	}
	slices.Sort(gens)
	for _, gen := range gens {
		at, err := c.w.wait(ctx, gen, 10*time.Second)
		if err != nil {
			b.fail("mutation at generation %d: %v", gen, err)
			continue
		}
		c.pushes = append(c.pushes, ms(at.Sub(c.due[gen])))
	}
	clear(c.due)
	return summarize("churn", churnMutRate+churnReadRate, start, length, samples), nil
}

func churnKind(op churnOp) string {
	if op.mutate {
		return kindMutate
	}
	return kindRead
}

// mutate sends one single-row batch once the previous batch's watch event
// has arrived; the push is timed when the phase ends.
func (c *churnRun) mutate(ctx context.Context, op churnOp, due time.Time, hdr http.Header) error {
	if c.lastGen > 0 {
		if _, err := c.w.wait(ctx, c.lastGen, 10*time.Second); err != nil {
			return err
		}
	}
	var batch delta.Batch
	var path string
	var payload any
	if op.row != nil {
		batch = delta.Batch{Append: [][]float64{op.row}}
		path, payload = "/v1/datasets/churn/append", map[string]any{"rows": batch.Append}
	} else {
		id := c.live[int(op.pick%uint32(len(c.live)))]
		batch = delta.Batch{Delete: []int{id}}
		path, payload = "/v1/datasets/churn/delete", map[string]any{"ids": batch.Delete}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	out, err := c.d.do(ctx, http.MethodPost, path, body, hdr)
	if err != nil {
		return err
	}
	var mb mutationBody
	if err := json.Unmarshal(out, &mb); err != nil {
		return err
	}
	if len(mb.Tuples) != 1 {
		return fmt.Errorf("%s: %d tuple statuses, want 1", path, len(mb.Tuples))
	}
	t := mb.Tuples[0]
	assigned := -1
	switch {
	case op.row != nil && t.Status == "appended":
		c.live = append(c.live, t.ID)
		assigned = t.ID
	case op.row == nil && t.Status == "deleted":
		i := slices.Index(c.live, t.ID)
		c.live = slices.Delete(c.live, i, i+1)
	default:
		return fmt.Errorf("%s: tuple %d status %q", path, t.ID, t.Status)
	}
	c.ops = append(c.ops, churnDone{read: -1, batch: batch, assigned: assigned})
	c.lastGen = mb.Generation
	c.due[mb.Generation] = due
	return nil
}

// churn runs the churn workload.
func (b *bench) churn(ctx context.Context) error {
	var c *churnRun
	rep := 0
	_, setupS, err := b.setupRepeated(ctx, func(ctx context.Context) (*daemon, error) {
		if c != nil {
			c.w.close()
		}
		var err error
		if c, err = b.churnSetup(ctx, &rep); err != nil {
			return nil, err
		}
		return c.d, nil
	})
	if err != nil {
		return err
	}
	defer c.stop()

	before, err := c.d.stats(ctx)
	if err != nil {
		return err
	}
	var steps []step
	var tracedPushes []float64
	if b.traced {
		s, err := c.phase(ctx, b.seed, b.measure/2, false)
		if err != nil {
			return err
		}
		steps = append(steps, s)
		untraced := len(c.pushes)
		if s, err = c.phase(ctx, b.seed+1, b.measure/2, true); err != nil {
			return err
		}
		steps = append(steps, s)
		tracedPushes = c.pushes[untraced:]
		c.pushes = c.pushes[:untraced]
	} else {
		s, err := c.phase(ctx, b.seed, b.measure, false)
		if err != nil {
			return err
		}
		steps = append(steps, s)
	}
	after, err := c.d.stats(ctx)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cnt := diffStats(before, after)
	rss, err := c.d.hwmMiB()
	if err != nil {
		return err
	}

	section(fmt.Sprintf("churn: open loop, %d mutations/s (3:1 append:delete) + %d reads/s on one connection, 1 watch stream", churnMutRate, churnReadRate))
	for _, s := range steps {
		s.print(1, warmP99Limit)
		s.lat.print(kindRead, kindMutate)
	}
	if err := b.checkChurn(ctx, c, cnt); err != nil {
		return err
	}
	if cnt.watchDropped != 0 {
		b.problem("watch dropped %d subscribers; the workload's one subscriber must keep up", cnt.watchDropped)
	}

	s := steps[0]
	if len(s.lat[kindRead]) == 0 || len(s.lat[kindMutate]) == 0 || len(c.pushes) == 0 {
		return errors.New("churn completed no read, mutation or push")
	}
	valid := s.valid(1, warmP99Limit)
	section("churn end-to-end")
	row("setup_s", "s", setupS, "median of 3 set-ups")
	stepRow("read_p50_ms", "ms", median(s.lat[kindRead]), len(s.lat[kindRead]), valid)
	stepRow("read_p99_ms", "ms", quantile(s.lat[kindRead], 0.99), len(s.lat[kindRead]), valid)
	stepRow("mutate_p50_ms", "ms", median(s.lat[kindMutate]), len(s.lat[kindMutate]), valid)
	stepRow("mutate_p99_ms", "ms", quantile(s.lat[kindMutate], 0.99), len(s.lat[kindMutate]), valid)
	stepRow("push_p50_ms", "ms", median(c.pushes), len(c.pushes), valid)
	row("rss_mb", "MiB", rss, "rrrd VmHWM")
	counterRows(cnt)
	// The result line must carry latency_p50_ms on every run; an invalid
	// step still supplies it, and the report above says the step was
	// invalid.
	b.set("setup_s", "s", setupS)
	b.set("latency_p50_ms", "ms", geomean(median(s.lat[kindRead]), median(s.lat[kindMutate]), median(c.pushes)))
	b.set("rss_mb", "MiB", rss)
	if b.traced {
		tr := steps[1]
		section("tracing overhead (traced half minus untraced half, p50)")
		for _, k := range []string{kindRead, kindMutate} {
			row(k, "ms", median(tr.lat[k])-median(s.lat[k]), fmt.Sprintf("traced n=%d", len(tr.lat[k])))
		}
		row(kindPush, "ms", median(tracedPushes)-median(c.pushes), fmt.Sprintf("traced n=%d", len(tracedPushes)))
		return b.ledger(ctx, c.d, workloadState{cnt: cnt, steps: steps[:1], churn: true})
	}
	return nil
}

// checkChurn replays the served operation sequence on an in-process
// service set up as the daemon was (the cached keys solved, one watcher),
// checks that the daemon's delta class counts equal the replay's — they
// depend on the seed alone — and compares every maintained key with a
// fresh solve of the final generation.
func (b *bench) checkChurn(ctx context.Context, c *churnRun, cnt counterDelta) error {
	t, _, err := churnData.load()
	if err != nil {
		return err
	}
	svc := service.New(service.Config{Seed: solverSeed, DeltaMaintenance: true, Watch: true})
	defer svc.CloseWatchers("replay done")
	if _, err := svc.Registry().Register("churn", t); err != nil {
		return err
	}
	for _, k := range churnKs {
		if _, err := svc.Representative(ctx, "churn", k, ""); err != nil {
			return err
		}
	}
	w := newWatcher(func() {})
	sub, pre, err := svc.Watch(ctx, service.WatchRequest{Dataset: "churn", K: churnWatchK}, func(ev watch.Event) error {
		w.event(ev.Type, ev.Gen)
		return nil
	})
	if err != nil {
		return err
	}
	defer sub.Cancel()
	sub.Start(pre)
	before := svc.Metrics().Snapshot().Delta
	mutations := 0
	for i, op := range c.ops {
		if op.read >= 0 {
			if _, err := svc.Representative(ctx, "churn", churnKs[op.read], ""); err != nil {
				return fmt.Errorf("replaying read %d: %w", i, err)
			}
			continue
		}
		mutations++
		m, err := svc.Mutate(ctx, "churn", op.batch)
		if err != nil {
			return fmt.Errorf("replaying mutation %d: %w", i, err)
		}
		if op.assigned >= 0 && m.Tuples[0].ID != op.assigned {
			b.problem("mutation %d: daemon assigned tuple %d, replay %d", i, op.assigned, m.Tuples[0].ID)
		}
		if _, err := w.wait(ctx, m.Gen, 10*time.Second); err != nil {
			return fmt.Errorf("replaying mutation %d: %w", i, err)
		}
	}
	after := svc.Metrics().Snapshot().Delta
	if got, want := [3]int64{cnt.revalidated, cnt.repaired, cnt.recomputed},
		[3]int64{after.Revalidated - before.Revalidated, after.Repaired - before.Repaired, after.Recomputed - before.Recomputed}; got != want {
		b.problem("delta classes (revalidated, repaired, recomputed) %v, in-process replay of the same operations %v", got, want)
	}
	entry, err := svc.Registry().Get("churn")
	if err != nil {
		return err
	}
	for _, k := range churnKs {
		var rep repBody
		_, err := c.d.getJSON(ctx, fmt.Sprintf("/v1/representative?dataset=churn&k=%d", k), &rep)
		b.attempt(err)
		if err != nil {
			continue
		}
		ref, err := rrr.New(rrr.WithSeed(solverSeed)).Solve(ctx, entry.Data, k)
		if err != nil {
			return err
		}
		if !slices.Equal(rep.IDs, ref.IDs) {
			b.fail("churn k=%d after %d mutations: ids %v, fresh solve of the final generation %v", k, mutations, rep.IDs, ref.IDs)
		}
	}
	return nil
}
