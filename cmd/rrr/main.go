// Command rrr computes a rank-regret representative of a dataset.
//
// Input is either a CSV file whose header marks preference directions
// ("Name:+" higher-better, "Name:-" lower-better) or one of the built-in
// synthetic datasets. The chosen tuples are printed with their attribute
// values, optionally together with a sampled rank-regret evaluation.
//
// Examples:
//
//	rrr -input diamonds.csv -k 100
//	rrr -dataset bn -n 10000 -d 3 -k 100 -algo mdrrr -evaluate
//	rrr -dataset dot -n 5000 -d 2 -k 50 -algo 2drrr
//	rrr -dataset dot -n 5000 -d 2 -ks 10,50,100   # one sweep, three answers
//
// The watch subcommand tails a running rrrd's live-update stream instead
// of solving locally (one line per event, auto-reconnect with resume):
//
//	rrr watch -server http://localhost:8080 -dataset flights -k 100
//
// The query subcommand asks a running rrrd for a representative; -trace
// sends a generated W3C traceparent, prints the trace ID, and renders the
// request's span tree fetched from /v1/traces/{id}:
//
//	rrr query -server http://localhost:8080 -dataset flights -k 100 -trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"rrr"
)

func main() {
	// Subcommand dispatch precedes flag.Parse: the watch client has its
	// own flag set (server/dataset/k/algo), disjoint from the solver's.
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		if err := runWatch(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "rrr watch:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "query" {
		if err := runQuery(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rrr query:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rrr:", err)
		// A typed solver error carries the work done before the stop —
		// worth surfacing so an interrupted run isn't a silent total loss.
		var solveErr *rrr.Error
		if errors.As(err, &solveErr) {
			p := solveErr.Partial
			slog.Warn("partial work before stop", "nodes", p.Nodes, "ksets", p.KSets,
				"draws", p.Draws, "elapsed", p.Elapsed.Round(time.Millisecond))
			if p.Best != nil {
				slog.Warn("best dual result before stop", "k", p.BestK, "size", len(p.Best.IDs))
			}
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		input    = flag.String("input", "", "CSV file to load (header: Name:+ / Name:-)")
		dsKind   = flag.String("dataset", "", "built-in dataset: dot, bn, independent, correlated, anticorrelated")
		n        = flag.Int("n", 10000, "rows to generate for -dataset")
		d        = flag.Int("d", 3, "attributes to keep (first d columns)")
		k        = flag.Int("k", 100, "rank-regret target k")
		ksFlag   = flag.String("ks", "", "comma-separated k values solved as one batch (shared sweep/sampling); overrides -k")
		algoName = flag.String("algo", "auto", "algorithm: auto, 2drrr, mdrrr, mdrc")
		seed     = flag.Int64("seed", 1, "random seed (data generation and MDRRR sampling)")
		evaluate = flag.Bool("evaluate", false, "estimate the output's rank-regret on 10k sampled functions")
		dual     = flag.Int("size", 0, "solve the dual problem instead: minimal k for this size budget")
		timeout  = flag.Duration("timeout", 0, "abort the solve after this long (0 = no deadline)")
		progress = flag.Bool("progress", false, "report solver progress to stderr while running")
		logFmt   = flag.String("log-format", "text", "stderr diagnostics format: text or json (results still print to stdout)")
	)
	flag.Parse()
	logger, err := newLogger(*logFmt)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	table, err := loadTable(*input, *dsKind, *n, *seed)
	if err != nil {
		return err
	}
	if *d > 0 && *d < table.Dims() {
		table, err = table.FirstDims(*d)
		if err != nil {
			return err
		}
	}
	ds, err := table.Normalize()
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %s, n=%d, d=%d\n", table.Name, ds.N(), ds.Dims())

	algorithm, err := rrr.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	opts := []rrr.Option{rrr.WithAlgorithm(algorithm), rrr.WithSeed(*seed)}
	if *progress {
		last := time.Now()
		opts = append(opts, rrr.WithProgress(func(p rrr.Progress) {
			if time.Since(last) < 500*time.Millisecond {
				return
			}
			last = time.Now()
			logger.Info("solver progress", "algorithm", p.Algorithm.String(),
				"nodes", p.Nodes, "ksets", p.KSets, "draws", p.Draws,
				"elapsed", p.Elapsed.Round(time.Millisecond))
		}))
	}
	solver := rrr.New(opts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *ksFlag != "" {
		return runBatch(ctx, solver, ds, *ksFlag, *dual)
	}

	var res *rrr.Result
	if *dual > 0 {
		var gotK int
		gotK, res, err = solver.MinimalKForSize(ctx, ds, *dual)
		if err != nil {
			return err
		}
		fmt.Printf("dual problem: size budget %d achieved at k=%d\n", *dual, gotK)
		*k = gotK
	} else {
		res, err = solver.Solve(ctx, ds, *k)
		if err != nil {
			return err
		}
	}
	fmt.Printf("algorithm: %s, k=%d, output size: %d\n", res.Algorithm, *k, len(res.IDs))
	fmt.Println()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "id"
	for _, a := range table.Attrs {
		header += "\t" + a.Name
	}
	fmt.Fprintln(w, header)
	for _, id := range res.IDs {
		row := fmt.Sprintf("%d", id)
		for _, v := range table.Rows[id] {
			row += fmt.Sprintf("\t%.4g", v)
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()

	if *evaluate {
		worst, witness, err := rrr.EstimateRankRegret(ds, res.IDs, rrr.EvalOptions{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Printf("\nestimated rank-regret over 10000 sampled functions: %d (target k=%d)\n", worst, *k)
		fmt.Printf("worst function found: %v\n", witness)
	}
	return nil
}

// runBatch answers every -ks value (plus an optional -size dual query) in
// one SolveBatch call and prints a per-query summary: the shared phases —
// the 2-D sweep, the K-SETr sampling stream — run once for the whole set.
func runBatch(ctx context.Context, solver *rrr.Solver, ds *rrr.Dataset, ksSpec string, size int) error {
	var reqs []rrr.Request
	for _, part := range strings.Split(ksSpec, ",") {
		kv, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad -ks value %q", part)
		}
		reqs = append(reqs, rrr.Request{K: kv})
	}
	if size > 0 {
		reqs = append(reqs, rrr.Request{Size: size})
	}
	br, err := solver.SolveBatch(ctx, ds, reqs)
	if err != nil {
		return err
	}
	fmt.Printf("batch: %d queries, %d solves, %d reused, %d sweeps, %d draws, %v\n",
		len(br.Items), br.Stats.Solves, br.Stats.Reused, br.Stats.Sweeps, br.Stats.Draws,
		br.Stats.Elapsed.Round(time.Millisecond))
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tk\tsize\tids")
	var firstErr error
	for _, it := range br.Items {
		label := fmt.Sprintf("k=%d", it.Request.K)
		if it.Request.Size > 0 {
			label = fmt.Sprintf("size<=%d", it.Request.Size)
		}
		if it.Err != nil {
			fmt.Fprintf(w, "%s\t-\t-\terror: %v\n", label, it.Err)
			if firstErr == nil {
				firstErr = it.Err
			}
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\n", label, it.K, len(it.Result.IDs), it.Result.IDs)
	}
	w.Flush()
	return firstErr
}

// newLogger builds the stderr diagnostics logger for -log-format. Solver
// results keep printing to stdout; only progress, reconnect and
// partial-work lines go through slog, so piping stdout stays clean.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("-log-format: unknown format %q (want text or json)", format)
	}
}

func loadTable(input, kind string, n int, seed int64) (*rrr.Table, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return rrr.ReadCSV(f, input)
	}
	if kind == "" {
		return nil, fmt.Errorf("provide -input FILE or -dataset KIND")
	}
	return rrr.GenerateTable(kind, n, 0, seed)
}
