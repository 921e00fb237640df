// Command slogate is the CI latency-SLO gate: it drives a smoke-scale
// in-process rrrd through a cold (all cache misses) and a warm (all
// cache hits) request mix, reports p50/p99 per mix, and fails (exit 1)
// when a p99 breaks its absolute budget or regresses against the most
// recent main-branch baseline.
//
//	slogate -baseline slo-baseline/slo.json -result slo.json
//
// Like benchgate, a missing baseline is not an error: the first run
// prints a notice and passes, and the result file it writes seeds the
// next comparison. Baseline gating needs two bars cleared to fail —
// p99 grew by more than -factor times the baseline AND by more than
// -noise-floor absolute — so scheduler jitter on a loaded CI machine
// cannot fail the gate on a microsecond-scale warm path, and a real
// regression cannot hide inside the factor on a second-scale cold path.
//
// -inject adds a fixed artificial delay to every request. It exists so
// CI can prove the gate actually gates: run once to seed the baseline,
// run again with -inject and require exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"rrr/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// phaseResult is one request mix's latency summary, the unit of the
// baseline JSON artifact.
type phaseResult struct {
	Requests int   `json:"requests"`
	P50NS    int64 `json:"p50_ns"`
	P99NS    int64 `json:"p99_ns"`
	MaxNS    int64 `json:"max_ns"`
}

// sloResult is the result/baseline file schema. Baselines written before
// the shard count was dropped still carry a "shards" field; decoding
// ignores it.
type sloResult struct {
	N    int         `json:"dataset_rows"`
	Cold phaseResult `json:"cold"`
	Warm phaseResult `json:"warm"`
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("slogate", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		baseline   = fs.String("baseline", "", "baseline slo.json (missing file = pass with notice)")
		result     = fs.String("result", "slo.json", "where to write this run's latency summary")
		rows       = fs.Int("rows", 4000, "smoke dataset size (2-D dot distribution)")
		coldN      = fs.Int("cold", 40, "cold requests (distinct k per request, every one a full solve)")
		warmN      = fs.Int("warm", 400, "warm requests (one primed key, every one a cache hit)")
		coldBudget = fs.Duration("cold-budget", 2*time.Second, "absolute p99 budget for cold solves")
		warmBudget = fs.Duration("warm-budget", 250*time.Millisecond, "absolute p99 budget for warm hits")
		factor     = fs.Float64("factor", 3.0, "baseline gate: fail when p99 > baseline p99 * factor ...")
		noiseFloor = fs.Duration("noise-floor", 25*time.Millisecond, "... AND p99 grew by more than this absolute amount")
		inject     = fs.Duration("inject", 0, "artificial per-request delay (gate self-test)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cur, err := measure(*rows, *coldN, *warmN, *inject)
	if err != nil {
		fmt.Fprintln(out, "slogate:", err)
		return 2
	}
	printPhase(out, "cold", cur.Cold)
	printPhase(out, "warm", cur.Warm)

	if err := writeResult(*result, cur); err != nil {
		fmt.Fprintln(out, "slogate: writing result:", err)
		return 2
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		fmt.Fprintln(out, "slogate:", err)
		return 2
	}
	if *baseline != "" && base == nil {
		fmt.Fprintf(out, "slogate: no baseline at %s — first run on this branch, passing; %s seeds the next comparison\n", *baseline, *result)
	}

	failures := 0
	failures += gatePhase(out, "cold", cur.Cold, baselinePhase(base, func(r *sloResult) phaseResult { return r.Cold }), *coldBudget, *factor, *noiseFloor)
	failures += gatePhase(out, "warm", cur.Warm, baselinePhase(base, func(r *sloResult) phaseResult { return r.Warm }), *warmBudget, *factor, *noiseFloor)
	if failures > 0 {
		fmt.Fprintf(out, "\nslogate: FAIL — %d SLO violation(s)\n", failures)
		return 1
	}
	fmt.Fprintf(out, "\nslogate: ok — p99 within budget (cold %v, warm %v) and within %.1fx of baseline\n",
		*coldBudget, *warmBudget, *factor)
	return 0
}

// measure drives the request mixes through an in-process server — the
// real handler stack (mux, tracing, cache, solver) in rrrd's default
// configuration, no network, so the number measured is the daemon's own
// latency, not the loopback's.
func measure(rows, coldN, warmN int, inject time.Duration) (*sloResult, error) {
	svc := service.New(service.Config{Seed: 1})
	if _, err := svc.Registry().Generate("smoke", "dot", rows, 2, 1); err != nil {
		return nil, err
	}
	h := service.NewServer(svc)

	do := func(k int) (time.Duration, error) {
		req := httptest.NewRequest("GET", fmt.Sprintf("/v1/representative?dataset=smoke&k=%d", k), nil)
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		if inject > 0 {
			time.Sleep(inject)
		}
		elapsed := time.Since(start)
		if w.Code != 200 {
			return 0, fmt.Errorf("k=%d: status %d: %s", k, w.Code, w.Body.String())
		}
		return elapsed, nil
	}

	// Cold mix: every request a distinct k, so every one runs a full
	// solve. k starts at 2 — k=1 answers trivially.
	cold := make([]time.Duration, 0, coldN)
	for i := 0; i < coldN; i++ {
		d, err := do(2 + i)
		if err != nil {
			return nil, err
		}
		cold = append(cold, d)
	}

	// Warm mix: one more request on a k the cold phase already solved —
	// every request after that is a pure cache hit on the encoded body.
	warm := make([]time.Duration, 0, warmN)
	for i := 0; i < warmN; i++ {
		d, err := do(2)
		if err != nil {
			return nil, err
		}
		warm = append(warm, d)
	}

	return &sloResult{
		N:    rows,
		Cold: summarize(cold),
		Warm: summarize(warm),
	}, nil
}

func summarize(samples []time.Duration) phaseResult {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return phaseResult{
		Requests: len(sorted),
		P50NS:    int64(percentile(sorted, 50)),
		P99NS:    int64(percentile(sorted, 99)),
		MaxNS:    int64(sorted[len(sorted)-1]),
	}
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func printPhase(out io.Writer, name string, p phaseResult) {
	fmt.Fprintf(out, "%-5s %4d requests  p50 %-12v p99 %-12v max %v\n",
		name, p.Requests, time.Duration(p.P50NS), time.Duration(p.P99NS), time.Duration(p.MaxNS))
}

// gatePhase applies both gates to one mix and returns the number of
// violations (0 or more), printing each.
func gatePhase(out io.Writer, name string, cur phaseResult, base *phaseResult, budget time.Duration, factor float64, floor time.Duration) int {
	failures := 0
	p99 := time.Duration(cur.P99NS)
	if p99 > budget {
		fmt.Fprintf(out, "slogate: %s p99 %v exceeds the absolute budget %v\n", name, p99, budget)
		failures++
	}
	if base != nil {
		basep99 := time.Duration(base.P99NS)
		grewFactor := float64(p99) > float64(basep99)*factor
		grewAbs := p99-basep99 > floor
		if grewFactor && grewAbs {
			fmt.Fprintf(out, "slogate: %s p99 %v regressed vs baseline %v (> %.1fx and > %v absolute)\n",
				name, p99, basep99, factor, floor)
			failures++
		}
	}
	return failures
}

func baselinePhase(base *sloResult, pick func(*sloResult) phaseResult) *phaseResult {
	if base == nil {
		return nil
	}
	p := pick(base)
	return &p
}

// readBaseline loads the baseline artifact; (nil, nil) when the path is
// empty or the file does not exist yet.
func readBaseline(path string) (*sloResult, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var r sloResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &r, nil
}

func writeResult(path string, r *sloResult) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
