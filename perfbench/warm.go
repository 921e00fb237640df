package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"rrr"
	"rrr/internal/core"
)

const (
	kindRep  = "rep"
	kindRank = "rank"
)

// warmState is warm-read's set-up product: the warmed answers and the
// bytes every later read of each key must return.
type warmState struct {
	plan   *warmPlan
	ids    [][]int  // per key, the warmed representative
	bodies [][]byte // per key, the canonical GET body
}

// warmUp warms every key through one /v1/batch per dataset and fetches
// each key once, which attaches the pre-marshaled body later hits serve.
func warmUp(ctx context.Context, d *daemon, plan *warmPlan) (*warmState, error) {
	for name, spec := range map[string]dataSpec{"w2d": warm2D, "wmd": warmMD} {
		if err := d.register(ctx, name, spec); err != nil {
			return nil, err
		}
	}
	st := &warmState{plan: plan, ids: make([][]int, len(plan.keys)), bodies: make([][]byte, len(plan.keys))}
	for _, name := range []string{"w2d", "wmd"} {
		var items []map[string]int
		var idx []int
		for i, key := range plan.keys {
			if key.dataset == name {
				items = append(items, map[string]int{"k": key.k})
				idx = append(idx, i)
			}
		}
		var bb batchBody
		if _, err := d.postJSON(ctx, "/v1/batch", map[string]any{"dataset": name, "items": items}, &bb); err != nil {
			return nil, err
		}
		if len(bb.Items) != len(idx) {
			return nil, fmt.Errorf("warm-up batch on %s: %d items, want %d", name, len(bb.Items), len(idx))
		}
		for j, it := range bb.Items {
			if it.Error != "" {
				return nil, fmt.Errorf("warm-up batch on %s k=%d: %s", name, it.K, it.Error)
			}
			st.ids[idx[j]] = it.IDs
		}
	}
	for i, key := range plan.keys {
		body, err := d.do(ctx, http.MethodGet, repPath(key), nil, nil)
		if err != nil {
			return nil, err
		}
		var rep repBody
		if err := json.Unmarshal(body, &rep); err != nil {
			return nil, err
		}
		if !rep.Cached || !slices.Equal(rep.IDs, st.ids[i]) {
			return nil, fmt.Errorf("warm-up GET %s: cached=%v ids=%v, batch gave %v", repPath(key), rep.Cached, rep.IDs, st.ids[i])
		}
		st.bodies[i] = body
	}
	return st, nil
}

func repPath(key warmKey) string {
	return fmt.Sprintf("/v1/representative?dataset=%s&k=%d", key.dataset, key.k)
}

func rankPath(key warmKey, ids []int, weights []float64) string {
	return fmt.Sprintf("/v1/rank?dataset=%s&ids=%s&weights=%s", key.dataset, joinInts(ids), joinFloats(weights))
}

func joinInts(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

func joinFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(s, ",")
}

// warmCall is one timed warm-read request and what came back.
type warmCall struct {
	op   warmOp
	body []byte
}

// warmStep offers rate req/s for length over the workload's two
// connections and returns the step summary with every response kept for
// the checks.
func (b *bench) warmStep(ctx context.Context, d *daemon, st *warmState, name string, rate float64, length time.Duration, traced bool) (step, []warmCall) {
	n := int(rate * length.Seconds())
	calls := make([]warmCall, n)
	for i := range calls {
		calls[i].op = st.plan.next()
	}
	reqs := make([]int, n)
	if traced {
		for i := range reqs {
			reqs[i] = b.tr.request(kindOf(calls[i].op))
		}
	}
	start := time.Now().Add(time.Millisecond)
	samples := openLoop(ctx, start, n, warmConns, func(i int) time.Duration {
		return time.Duration(float64(i) / rate * float64(time.Second))
	}, func(ctx context.Context, i int) (string, error) {
		c := &calls[i]
		key := st.plan.keys[c.op.key]
		path := repPath(key)
		if c.op.probe {
			path = rankPath(key, st.ids[c.op.key], c.op.weights)
		}
		var hdr http.Header
		if traced {
			hdr = http.Header{"Traceparent": {b.tr.traceparent(reqs[i])}}
		}
		var err error
		c.body, err = d.do(ctx, http.MethodGet, path, nil, hdr)
		return kindOf(c.op), err
	})
	if traced {
		// Spans are recorded after the step: the tracer is single-threaded.
		for i, s := range samples {
			b.tr.record(reqs[i], 0, layerSocket, s.sent, s.done)
		}
	}
	for _, s := range samples {
		b.attempt(s.err)
	}
	return summarize(name, rate, start, length, samples), calls[:len(samples)]
}

func kindOf(op warmOp) string {
	if op.probe {
		return kindRank
	}
	return kindRep
}

// warmConns is the generator's connection count: nproc on the machine the
// benchmark was sized on.
const warmConns = 2

// warmRead runs the warm-read workload.
func (b *bench) warmRead(ctx context.Context) error {
	var st *warmState
	d, setupS, err := b.setupRepeated(ctx, func(ctx context.Context) (*daemon, error) {
		d, err := startDaemon(ctx, b.dir, warmConns)
		if err != nil {
			return nil, err
		}
		if st, err = warmUp(ctx, d, newWarmPlan(b.seed)); err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.stop()

	before, err := d.stats(ctx)
	if err != nil {
		return err
	}
	var steps []step
	var calls []warmCall
	addStep := func(name string, rate float64, length time.Duration, traced bool) {
		s, c := b.warmStep(ctx, d, st, name, rate, length, traced)
		steps = append(steps, s)
		calls = append(calls, c...)
	}
	if b.traced {
		addStep("nominal", warmNominal, b.measure/2, false)
		addStep("traced", warmNominal, b.measure/2, true)
	} else {
		addStep("nominal", warmNominal, b.measure*7/10, false)
		for _, rate := range warmLadder {
			addStep(fmt.Sprintf("%.0f", rate), rate, b.measure/10, false)
		}
	}
	after, err := d.stats(ctx)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cnt := diffStats(before, after)
	rss, err := d.hwmMiB()
	if err != nil {
		return err
	}

	section(fmt.Sprintf("warm-read: open loop over %d connections, %d keys, Zipf s=1.1, %.0f%% rank probes", warmConns, len(st.plan.keys), warmProbeRate*100))
	maxRPS := 0.0
	for _, s := range steps {
		s.print(warmConns, warmP99Limit)
		s.lat.print(kindRep, kindRank)
		reads := append(slices.Clone(s.lat[kindRep]), s.lat[kindRank]...)
		if s.name != "traced" && s.valid(warmConns, warmP99Limit) && s.failed == 0 && quantile(reads, 0.99) <= ms(warmP99Limit) {
			maxRPS = max(maxRPS, s.offered)
		}
	}
	if err := b.checkWarm(st, calls); err != nil {
		return err
	}
	if cnt.misses != 0 {
		b.problem("warm-read missed the cache %d times; every key was warmed", cnt.misses)
	}

	nom := steps[0]
	reads := append(slices.Clone(nom.lat[kindRep]), nom.lat[kindRank]...)
	section("warm-read end-to-end (nominal step)")
	valid := nom.valid(warmConns, warmP99Limit)
	row("setup_s", "s", setupS, "median of 3 set-ups")
	stepRow("read_p50_ms", "ms", median(reads), len(reads), valid)
	stepRow("read_p99_ms", "ms", quantile(reads, 0.99), len(reads), valid)
	row("read_max_rps", "req/s", maxRPS, fmt.Sprintf("p99 limit %v, ladder %v", warmP99Limit, warmLadder))
	row("rss_mb", "MiB", rss, "rrrd VmHWM")
	counterRows(cnt)
	if len(nom.lat[kindRep]) == 0 || len(nom.lat[kindRank]) == 0 {
		return fmt.Errorf("nominal step completed no %s or no %s request", kindRep, kindRank)
	}
	// As on churn, an invalid nominal step still supplies latency_p50_ms.
	b.set("setup_s", "s", setupS)
	b.set("latency_p50_ms", "ms", geomean(median(nom.lat[kindRep]), median(nom.lat[kindRank])))
	b.set("rss_mb", "MiB", rss)
	if b.traced {
		tr := steps[1]
		section("tracing overhead (traced half minus untraced half, p50)")
		for _, k := range []string{kindRep, kindRank} {
			row(k, "ms", median(tr.lat[k])-median(nom.lat[k]), fmt.Sprintf("traced n=%d", len(tr.lat[k])))
		}
		return b.ledger(ctx, d, workloadState{cnt: cnt, steps: steps[:1]})
	}
	return nil
}

// checkWarm verifies the warmed answers against an in-process batch solve,
// every cached read against its warmed body, and every rank probe against
// an in-process rank-regret of the same tuples, within the guarantee.
func (b *bench) checkWarm(st *warmState, calls []warmCall) error {
	data := map[string]*core.Dataset{}
	for name, spec := range map[string]dataSpec{"w2d": warm2D, "wmd": warmMD} {
		_, d, err := spec.load()
		if err != nil {
			return err
		}
		data[name] = d
	}
	ctx := context.Background()
	for _, name := range []string{"w2d", "wmd"} {
		var reqs []rrr.Request
		var idx []int
		for i, key := range st.plan.keys {
			if key.dataset == name {
				reqs = append(reqs, rrr.Request{K: key.k})
				idx = append(idx, i)
			}
		}
		ref, err := rrr.New(rrr.WithSeed(solverSeed)).SolveBatch(ctx, data[name], reqs)
		if err != nil {
			return err
		}
		for j, it := range ref.Items {
			if it.Err != nil {
				return it.Err
			}
			if !slices.Equal(it.Result.IDs, st.ids[idx[j]]) {
				b.problem("warmed %s k=%d: ids %v, in-process solve %v", name, it.K, st.ids[idx[j]], it.Result.IDs)
			}
		}
	}
	for _, c := range calls {
		if c.body == nil {
			continue // failed request, already counted
		}
		key := st.plan.keys[c.op.key]
		if !c.op.probe {
			if !bytes.Equal(c.body, st.bodies[c.op.key]) {
				b.fail("GET %s: body differs from the warmed answer: %s", repPath(key), c.body)
			}
			continue
		}
		var got struct {
			RankRegret int `json:"rank_regret"`
		}
		if err := json.Unmarshal(c.body, &got); err != nil {
			b.fail("rank probe on %s: %v", repPath(key), err)
			continue
		}
		d := data[key.dataset]
		want, err := rrr.RankRegret(d, rrr.NewLinearFunc(c.op.weights...), st.ids[c.op.key])
		if err != nil {
			return err
		}
		bound := key.dims * key.k
		if key.dims == 2 {
			bound = 2 * key.k
		}
		switch {
		case got.RankRegret != want:
			b.fail("rank probe on %s weights %v: rank-regret %d, in-process %d", repPath(key), c.op.weights, got.RankRegret, want)
		case got.RankRegret > bound:
			b.fail("rank probe on %s weights %v: rank-regret %d exceeds the guarantee %d", repPath(key), c.op.weights, got.RankRegret, bound)
		}
	}
	return nil
}
