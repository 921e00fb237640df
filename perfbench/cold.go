package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"rrr"
	"rrr/internal/core"
	"rrr/internal/eval"
	"rrr/internal/sweep"
)

// repBody is the part of a /v1/representative answer the checks read.
type repBody struct {
	K      int   `json:"k"`
	IDs    []int `json:"ids"`
	Cached bool  `json:"cached"`
}

type batchBody struct {
	Items []struct {
		K      int    `json:"k"`
		IDs    []int  `json:"ids"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
	} `json:"items"`
}

// The cold request types, in the order a cycle sends them.
const (
	kind2D    = "2drrr"
	kindMDRC  = "mdrc"
	kindMDRRR = "mdrrr"
	kindBatch = "batch"
)

var coldKinds = []string{kind2D, kindMDRC, kindMDRRR, kindBatch}

// coldKey identifies one cold answer up to the dataset copy: the request
// type and k (each batch item is its own answer).
type coldKey struct {
	kind string
	k    int
}

// coldLoop is cold-solve's closed-loop client; its pass counter carries
// across phases so every key stays uncached.
type coldLoop struct {
	b       *bench
	d       *daemon
	plan    *coldPlan
	pass    int
	answers map[coldKey][][]int
	// cycles counts completed cycles; keys the distinct cold keys asked.
	cycles, gets, batches, keys int
}

var coldCopies = []struct {
	prefix string
	spec   dataSpec
}{{"c2d", cold2D}, {"cmdrc", coldMDRC}, {"cmdrrr", coldMDRRR}}

// registerColdPass has the daemon generate pass p's dataset copies.
func registerColdPass(ctx context.Context, d *daemon, p int) error {
	for _, c := range coldCopies {
		if err := d.register(ctx, coldName(c.prefix, p), c.spec); err != nil {
			return err
		}
	}
	return nil
}

// dropColdPass removes pass p's copies and their cached answers, so the
// daemon's memory does not grow with the number of passes a run reaches.
func dropColdPass(ctx context.Context, d *daemon, p int) error {
	for _, c := range coldCopies {
		if _, err := d.do(ctx, http.MethodDelete, "/v1/datasets/"+coldName(c.prefix, p), nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// run drives the closed loop for length, starting a new cycle (one
// request of each type) only while time remains. The latencies it returns
// are those of the passes it completed; a run that completes none returns
// what it measured.
func (c *coldLoop) run(ctx context.Context, length time.Duration, traced bool) (latencies, error) {
	lat, partial := latencies{}, latencies{}
	deadline := time.Now().Add(length)
	for c.pass < coldPasses && time.Now().Before(deadline) {
		if c.pass > 0 {
			// Pass 0's copies are registered in set-up; later ones here,
			// untimed, as the loop reaches them.
			err := dropColdPass(ctx, c.d, c.pass-1)
			if err == nil {
				err = registerColdPass(ctx, c.d, c.pass)
			}
			c.b.attempt(err)
			if err != nil {
				return nil, err
			}
		}
		pass := latencies{}
		for _, slot := range c.plan.order[c.pass] {
			if !time.Now().Before(deadline) {
				break
			}
			if err := c.cycle(ctx, slot, pass, traced); err != nil {
				return nil, err
			}
		}
		into := lat
		if len(pass[kindBatch]) < coldSlots {
			into = partial
		}
		for k, v := range pass {
			into[k] = append(into[k], v...)
		}
		c.pass++
	}
	if len(lat) == 0 {
		lat = partial
	}
	return lat, ctx.Err()
}

func (c *coldLoop) cycle(ctx context.Context, slot int, lat latencies, traced bool) error {
	p := c.plan
	gets := []struct {
		kind, path string
	}{
		{kind2D, fmt.Sprintf("/v1/representative?dataset=%s&k=%d", coldName("c2d", c.pass), p.ks2D[slot])},
		{kindMDRC, fmt.Sprintf("/v1/representative?dataset=%s&k=%d", coldName("cmdrc", c.pass), p.ksMDRC[slot])},
		{kindMDRRR, fmt.Sprintf("/v1/representative?dataset=%s&k=%d&algo=mdrrr", coldName("cmdrrr", c.pass), p.ksMDRRR[slot])},
	}
	for _, g := range gets {
		body, took, err := c.send(ctx, g.kind, http.MethodGet, g.path, nil, traced)
		c.gets++
		c.keys++
		if err == nil {
			var rep repBody
			if err = json.Unmarshal(body, &rep); err == nil && rep.Cached {
				err = fmt.Errorf("%s: answered from cache; every cold key must be new", g.path)
			}
			if err == nil {
				key := coldKey{g.kind, rep.K}
				c.answers[key] = append(c.answers[key], rep.IDs)
				lat.add(g.kind, took)
			}
		}
		c.b.attempt(err)
	}
	items := make([]map[string]int, batchWidth)
	for j, k := range p.batches[slot] {
		items[j] = map[string]int{"k": k}
	}
	payload, err := json.Marshal(map[string]any{"dataset": coldName("c2d", c.pass), "items": items})
	if err != nil {
		return err
	}
	body, took, err := c.send(ctx, kindBatch, http.MethodPost, "/v1/batch", payload, traced)
	c.batches++
	c.keys += batchWidth
	if err == nil {
		var bb batchBody
		if err = json.Unmarshal(body, &bb); err == nil && len(bb.Items) != batchWidth {
			err = fmt.Errorf("/v1/batch: %d items, want %d", len(bb.Items), batchWidth)
		}
		for _, it := range bb.Items {
			if err != nil {
				break
			}
			switch {
			case it.Error != "":
				err = fmt.Errorf("/v1/batch k=%d: %s", it.K, it.Error)
			case it.Cached:
				err = fmt.Errorf("/v1/batch k=%d: answered from cache; every cold key must be new", it.K)
			default:
				key := coldKey{kindBatch, it.K}
				c.answers[key] = append(c.answers[key], it.IDs)
			}
		}
		if err == nil {
			lat.add(kindBatch, took)
		}
	}
	c.b.attempt(err)
	c.cycles++
	return ctx.Err()
}

// send times one request from send to the last body byte. In the traced
// phase the request carries a traceparent and its client-side span is
// recorded as the request's socket layer.
func (c *coldLoop) send(ctx context.Context, kind, method, path string, body []byte, traced bool) ([]byte, time.Duration, error) {
	var hdr http.Header
	var req int
	if traced {
		req = c.b.tr.request(kind)
		hdr = http.Header{"Traceparent": {c.b.tr.traceparent(req)}}
	}
	start := time.Now()
	out, err := c.d.do(ctx, method, path, body, hdr)
	took := time.Since(start)
	if traced {
		c.b.tr.record(req, 0, layerSocket, start, start.Add(took))
	}
	return out, took, err
}

// coldSolve runs the cold-solve workload.
func (b *bench) coldSolve(ctx context.Context) error {
	plan := newColdPlan(b.seed)
	d, setupS, err := b.setupRepeated(ctx, func(ctx context.Context) (*daemon, error) {
		d, err := startDaemon(ctx, b.dir, 1)
		if err != nil {
			return nil, err
		}
		if err := registerColdPass(ctx, d, 0); err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.stop()

	loop := &coldLoop{b: b, d: d, plan: plan, answers: map[coldKey][][]int{}}
	before, err := d.stats(ctx)
	if err != nil {
		return err
	}
	var lat, tracedLat latencies
	if b.traced {
		if lat, err = loop.run(ctx, b.measure/2, false); err != nil {
			return err
		}
		if tracedLat, err = loop.run(ctx, b.measure/2, true); err != nil {
			return err
		}
	} else if lat, err = loop.run(ctx, b.measure, false); err != nil {
		return err
	}
	after, err := d.stats(ctx)
	if err != nil {
		return err
	}
	cnt := diffStats(before, after)
	rss, err := d.hwmMiB()
	if err != nil {
		return err
	}

	section(fmt.Sprintf("cold-solve: closed loop, 1 client, %d cycles over %d passes", loop.cycles, loop.pass))
	lat.print(coldKinds...)
	repSize, ratio, err := b.checkCold(loop)
	if err != nil {
		return err
	}
	if want := int64(loop.gets + loop.batches); cnt.computations != want {
		b.problem("computations delta %d, want %d (one per cold GET and one per batch, %d distinct cold keys)", cnt.computations, want, loop.keys)
	}
	if cnt.hits != 0 || cnt.misses != int64(loop.keys) {
		b.problem("cold-solve: %d cache hits and %d misses, want 0 and one per distinct cold key (%d)", cnt.hits, cnt.misses, loop.keys)
	}

	section("cold-solve end-to-end")
	p50 := map[string]float64{}
	for _, k := range coldKinds {
		p50[k] = median(lat[k])
		if len(lat[k]) == 0 {
			return fmt.Errorf("no %s request completed within the run", k)
		}
	}
	row("setup_s", "s", setupS, "median of 3 set-ups")
	row("cold_2drrr_ms", "ms", p50[kind2D], fmt.Sprintf("n=%d", len(lat[kind2D])))
	row("cold_mdrc_ms", "ms", p50[kindMDRC], fmt.Sprintf("n=%d", len(lat[kindMDRC])))
	row("cold_mdrrr_ms", "ms", p50[kindMDRRR], fmt.Sprintf("n=%d", len(lat[kindMDRRR])))
	row("cold_batch_ms", "ms", p50[kindBatch], fmt.Sprintf("n=%d", len(lat[kindBatch])))
	row("rep_size", "tuples", repSize, "mean over distinct cold answers")
	row("rank_regret_ratio", "ratio", ratio, "max measured rank-regret / k")
	row("rss_mb", "MiB", rss, "rrrd VmHWM")
	row("cold_keys", "count", float64(loop.keys), fmt.Sprintf("distinct uncached keys asked (%d GETs, %d batches)", loop.gets, loop.batches))
	counterRows(cnt)
	gm := geomean(p50[kind2D], p50[kindMDRC], p50[kindMDRRR], p50[kindBatch])
	b.set("setup_s", "s", setupS)
	b.set("latency_p50_ms", "ms", gm)
	b.set("rss_mb", "MiB", rss)
	if b.traced {
		section("tracing overhead (traced half minus untraced half, p50)")
		for _, k := range coldKinds {
			row(k, "ms", median(tracedLat[k])-p50[k], fmt.Sprintf("traced n=%d", len(tracedLat[k])))
		}
		return b.ledger(ctx, d, workloadState{cnt: cnt, coldP50: p50})
	}
	return nil
}

// counterRows prints the daemon counter deltas of a timed phase.
func counterRows(c counterDelta) {
	section("daemon counters over the timed phase (/v1/stats deltas)")
	row("cache_hits", "count", float64(c.hits), "")
	row("cache_misses", "count", float64(c.misses), "")
	row("computations", "count", float64(c.computations), "")
	row("coalesced_joins", "count", float64(c.joins), "")
	row("delta.revalidated", "count", float64(c.revalidated), "")
	row("delta.repaired", "count", float64(c.repaired), "")
	row("delta.recomputed", "count", float64(c.recomputed), "")
	row("persist.wal_appends", "count", float64(c.walAppends), "")
	row("persist.wal_bytes", "bytes", float64(c.walBytes), "")
	row("watch.events", "count", float64(c.watchEvents), "")
	row("watch.dropped", "count", float64(c.watchDropped), "")
	row("gc_pause", "ms", c.gcPauseMS, "runtime.gc_pause_seconds_total delta")
}

// checkCold compares every cold answer with an in-process solve of the
// same data at the same seed, checks the paper's guarantees, and returns
// the mean representative size and the worst rank-regret / k.
func (b *bench) checkCold(loop *coldLoop) (repSize, ratio float64, err error) {
	data := map[string]*core.Dataset{}
	for kind, spec := range map[string]dataSpec{kind2D: cold2D, kindBatch: cold2D, kindMDRC: coldMDRC, kindMDRRR: coldMDRRR} {
		if _, data[kind], err = spec.load(); err != nil {
			return 0, 0, err
		}
	}
	keys := make([]coldKey, 0, len(loop.answers))
	for key := range loop.answers {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, c coldKey) int {
		if a.kind != c.kind {
			return strings.Compare(a.kind, c.kind)
		}
		return a.k - c.k
	})
	ctx := context.Background()
	var sizes []float64
	var twoD [][]int
	var twoDKeys []coldKey
	for _, key := range keys {
		algo := rrr.AlgoAuto
		if key.kind == kindMDRRR {
			algo = rrr.AlgoMDRRR
		}
		ref, err := rrr.New(rrr.WithSeed(solverSeed), rrr.WithAlgorithm(algo)).Solve(ctx, data[key.kind], key.k)
		if err != nil {
			return 0, 0, fmt.Errorf("reference solve %s k=%d: %w", key.kind, key.k, err)
		}
		for pass, ids := range loop.answers[key] {
			if !slices.Equal(ids, ref.IDs) {
				b.fail("%s k=%d pass %d: ids %v, in-process solve %v", key.kind, key.k, pass, ids, ref.IDs)
			}
		}
		sizes = append(sizes, float64(len(ref.IDs)))
		d := data[key.kind]
		switch {
		case d.Dims() == 2:
			twoD = append(twoD, ref.IDs)
			twoDKeys = append(twoDKeys, key)
		default:
			rr, _, err := eval.EstimateRankRegret(d, ref.IDs, eval.Options{Samples: regretSamples, Seed: b.seed})
			if err != nil {
				return 0, 0, err
			}
			if key.kind == kindMDRC && rr > d.Dims()*key.k {
				b.fail("mdrc k=%d: estimated rank-regret %d exceeds d·k = %d", key.k, rr, d.Dims()*key.k)
			}
			ratio = max(ratio, float64(rr)/float64(key.k))
		}
	}
	if len(twoD) > 0 {
		rrs, err := sweep.ExactRankRegretMulti(data[kind2D], twoD)
		if err != nil {
			return 0, 0, err
		}
		for i, rr := range rrs {
			k := twoDKeys[i].k
			if rr > 2*k {
				b.fail("%s k=%d: exact rank-regret %d exceeds 2k = %d", twoDKeys[i].kind, k, rr, 2*k)
			}
			ratio = max(ratio, float64(rr)/float64(k))
		}
	}
	return mean(sizes), ratio, nil
}

// regretSamples is the sample count of the d-D rank-regret estimates.
const regretSamples = 2000
