// Command perfbench is the repository benchmark. It starts rrrd as its own
// process, drives one of three workloads at it over a loopback socket,
// checks every answer, and prints the end-to-end figures by name and unit
// followed by one JSON result line:
//
//	bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 10 --trace 0
//
// Workloads (see workloads.go for why each exists and its sizes):
//
//   - cold-solve: closed loop, every request an uncached key; the solver
//     and kernels do the work.
//   - warm-read: open loop of cached reads and rank probes; the cache,
//     handler and socket do the work.
//   - churn: open loop of appends and deletes beside reads and a watch
//     stream; delta maintenance, the WAL and the watch hub do the work.
//
// With --trace 0 the result line carries the end-to-end metrics: setup_s
// (median of three set-ups, from rrrd start until the timed phase can
// begin), latency_p50_ms (the geometric mean over the workload's request
// types of each type's median latency) and rss_mb (rrrd's peak resident
// set). With --trace 1 the run splits its timed phase into an untraced and
// a traced half, then replays a seeded sample of requests down the stack
// in process — socket, service.Server.ServeHTTP, Service, rrr.Solver,
// algo, kernels — recording one span per layer, and reports the per-layer
// ledger. Spans are written to .bench_build/traces/ when the run ends.
//
// The generator process runs at most nproc goroutines that send and opens
// at most nproc connections, a watch stream included.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the timed phase runs on the last daemon.
const setupReps = 3

// endToEnd and perLayer are the metric names of the result line, as
// BENCHMARK.json lists them.
var (
	endToEnd = []string{"setup_s", "latency_p50_ms", "rss_mb"}
	perLayer = []string{
		"sweep.find_ranges_ms", "sweep.events", "cover.max_gain_us", "algo.twodrrr_ms",
		"topk.topk_us", "algo.mdrc_ms", "algo.mdrc_nodes", "algo.mdrc_fallbacks", "algo.mdrc_memo_hit_ratio",
		"kset.sample_ms", "kset.draws_per_kset", "cover.hitting_set_us", "algo.mdrrr_ms",
		"rrr.solve_2drrr_ms", "rrr.solve_mdrc_ms", "rrr.solve_mdrrr_ms", "rrr.batch_ms", "rrr.batch_sweeps",
		"shard.map_ms", "shard.prune_ratio",
		"service.miss_ms", "service.computations", "service.hit_us", "service.rank_regret_us",
		"service.http.hit_us", "service.http.rank_us", "rrrd.socket_us", "service.hit_ratio",
		"rrrd.gc_pause_ms", "loadgen.late_p99_ms", "loadgen.backlog",
		"wal.append_us", "wal.bytes_per_batch", "delta.classify_us", "delta.apply_us", "delta.build_pool_ms",
		"shard.dominance_ms", "delta.still_exact_ratio", "delta.repaired", "delta.recomputed",
		"service.mutate_ms", "service.http.mutate_ms", "watch.publish_us", "watch.dropped",
	}
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "cold-solve, warm-read or churn")
		seed     = flag.Int64("seed", 1, "workload seed: the k values, key popularity, probe weights and mutation stream")
		seconds  = flag.Int("seconds", 10, "length of the timed phase")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger; 0 = end-to-end metrics")
	)
	flag.Parse()
	if *seconds < 1 || *traceOn < 0 || *traceOn > 1 {
		return errors.New("want --seconds >= 1 and --trace 0 or 1")
	}
	workloads := map[string]func(*bench, context.Context) error{
		"cold-solve": (*bench).coldSolve,
		"warm-read":  (*bench).warmRead,
		"churn":      (*bench).churn,
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want cold-solve, warm-read or churn)", *workload)
	}
	if _, err := os.Stat(filepath.Join(buildDir, "bin", "rrrd")); err != nil {
		return fmt.Errorf("rrrd binary missing (build it with perfbench/run.sh): %w", err)
	}
	dir, err := os.MkdirTemp(ensureDir(filepath.Join(buildDir, "run")), *workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The whole run must end within three minutes; every request and the
	// daemon's shutdown hang off this context.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}()

	b := &bench{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *traceOn == 1,
		dir:     dir,
		metrics: map[string]metric{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n", *workload, *seed, *seconds, *traceOn, runtime.GOMAXPROCS(0))
	if err := fn(b, ctx); err != nil {
		return err
	}
	want := endToEnd
	if b.traced {
		want = perLayer
		if err := b.tr.write(*workload, *seed); err != nil {
			return err
		}
	}
	out := map[string]metric{}
	for _, name := range want {
		m, ok := b.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = m
	}
	section(fmt.Sprintf("result: attempted=%d failed=%d checks failed=%d", b.attempts, b.fails, len(b.problems)))
	line, err := json.Marshal(map[string]any{
		"correct":   len(b.problems) == 0,
		"attempted": b.attempts,
		"failed":    b.fails,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func ensureDir(p string) string {
	_ = os.MkdirAll(p, 0o755)
	return p
}

// setupRepeated runs a workload's set-up setupReps times, keeps the last
// daemon for the timed phase and returns the median set-up time.
func (b *bench) setupRepeated(ctx context.Context, setup func(context.Context) (*daemon, error)) (*daemon, float64, error) {
	var took []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = setup(ctx); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	slices.Sort(took)
	return d, took[len(took)/2], nil
}
