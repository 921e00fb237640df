package rrr

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rrr/internal/algo"
	"rrr/internal/delta"
	"rrr/internal/kset"
	"rrr/internal/trace"
)

// Progress is a periodic snapshot of a running solve, delivered to the
// WithProgress callback from inside the algorithms' hot loops (the MDRC
// recursion, the K-SETr draw loop). Counters irrelevant to the running
// algorithm are zero.
type Progress struct {
	// Algorithm is the resolved algorithm doing the work.
	Algorithm Algorithm
	// Nodes is the number of MDRC recursion nodes visited so far.
	Nodes int
	// KSets is the number of distinct k-sets discovered so far.
	KSets int
	// Draws is the number of ranking functions sampled so far.
	Draws int
	// Elapsed is the wall-clock time since the solve started.
	Elapsed time.Duration
}

// config is the resolved option set of a Solver.
type config struct {
	algorithm          Algorithm
	seed               int64
	optimalCover       bool
	epsilonNetHitting  bool
	pickMinMaxRank     bool
	samplerTermination int
	softMaxDraws       int  // WithSamplerMaxDraws: truncate, don't fail
	drawBudget         int  // hard: exceeding returns ErrBudgetExhausted
	nodeBudget         int  // hard: exceeding returns ErrBudgetExhausted
	batchWorkers       int  // SolveBatch fan-out pool size; <= 0 = GOMAXPROCS
	deltaMaintenance   bool // record containment pools; enable Revalidate
	progress           func(Progress)
}

// Option configures a Solver. Options are applied in order; later options
// override earlier ones.
type Option func(*config)

// WithAlgorithm selects the solver algorithm. The default (AlgoAuto)
// dispatches on the dataset's dimensionality at Solve time.
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algorithm = a } }

// WithSeed seeds the randomized components (K-SETr sampling).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithOptimalCover makes 2DRRR use the provably minimal interval cover
// instead of the paper's max-gain greedy.
func WithOptimalCover(on bool) Option { return func(c *config) { c.optimalCover = on } }

// WithEpsilonNetHitting switches MDRRR from the greedy hitting set to the
// Brönnimann–Goodrich ε-net algorithm the paper cites.
func WithEpsilonNetHitting(on bool) Option { return func(c *config) { c.epsilonNetHitting = on } }

// WithPickMinMaxRank switches MDRC from the paper's first-common-item rule
// to picking the common tuple with the best worst-corner rank.
func WithPickMinMaxRank(on bool) Option { return func(c *config) { c.pickMinMaxRank = on } }

// WithSamplerTermination sets K-SETr's consecutive-miss stop rule (the
// paper's c; default 100).
func WithSamplerTermination(c int) Option { return func(cfg *config) { cfg.samplerTermination = c } }

// WithDrawBudget puts a hard cap on the number of ranking functions K-SETr
// may sample. Exceeding it fails the solve with ErrBudgetExhausted (the
// partial stats report the draws and k-sets reached), unlike the soft cap
// WithSamplerMaxDraws, which silently truncates the collection.
// Zero or negative means no hard budget.
func WithDrawBudget(n int) Option { return func(c *config) { c.drawBudget = n } }

// WithNodeBudget puts a hard cap on the number of recursion nodes MDRC may
// visit. Exceeding it fails the solve with ErrBudgetExhausted, unlike the
// legacy soft cap, which resolved remaining rectangles by a fallback rule.
// Zero or negative means no hard budget (the soft cap still applies).
func WithNodeBudget(n int) Option { return func(c *config) { c.nodeBudget = n } }

// WithBatchWorkers bounds the worker pool SolveBatch fans per-query tail
// work across (interval covers, hitting sets, independent MDRC solves).
// Zero or negative means GOMAXPROCS. Single-query Solve calls are
// unaffected.
func WithBatchWorkers(n int) Option { return func(c *config) { c.batchWorkers = n } }

// WithProgress registers a callback invoked periodically from the running
// algorithm's hot loop. The callback runs on the solving goroutine: keep it
// fast, and do not call back into the Solver from it. A common use is
// cooperative cancellation on a work threshold:
//
//	ctx, cancel := context.WithCancel(ctx)
//	s := rrr.New(rrr.WithProgress(func(p rrr.Progress) {
//		if p.Nodes > 1_000_000 {
//			cancel()
//		}
//	}))
func WithProgress(fn func(Progress)) Option { return func(c *config) { c.progress = fn } }

// Solver computes rank-regret representatives. Its configuration is
// immutable after New and it is safe for concurrent use by multiple
// goroutines; per-call inputs (dataset, k, context) arrive through the
// methods. The Solver owns a pool of solve-scratch arenas (see SolveInto):
// every solve — including each of a batch's concurrent workers — checks
// out its own arena, so reuse never races.
type Solver struct {
	cfg    config
	arenas arenaPool
}

// New builds a Solver from functional options. The zero configuration
// reproduces the paper's defaults: auto algorithm dispatch, max-gain
// cover, greedy hitting set, termination c = 100, soft work caps.
func New(opts ...Option) *Solver {
	var cfg config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return &Solver{cfg: cfg}
}

// Solve computes a rank-regret representative of d for target k: a small
// subset containing at least one top-k tuple of every linear ranking
// function (Definition 3 of the paper).
//
// The context is checked periodically inside every algorithm's hot loop —
// the 2-D sweep, the K-SETr draw loop, the MDRC recursion — so canceling
// ctx or exceeding its deadline interrupts the work promptly. Interrupted
// solves return a *Error wrapping ErrCanceled (or ErrBudgetExhausted for
// hard budgets) whose Partial field reports the work done.
func (s *Solver) Solve(ctx context.Context, d *Dataset, k int) (*Result, error) {
	res := new(Result)
	if err := s.SolveInto(ctx, d, k, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveInto is Solve writing into a caller-owned Result: res's slices are
// reused (truncated and refilled) instead of reallocated, and the solve
// itself runs on one of the Solver's pooled scratch arenas — so a
// steady-state caller that recycles one Result across calls allocates
// nothing on the 2-D path, and near-nothing on the others.
//
// Ownership and aliasing rules (see DESIGN.md §11): res must not be read
// while SolveInto runs; on error res's contents are unspecified; the IDs
// slice stored in res is owned by res (not by the arena), so it remains
// valid across subsequent solves — reusing res overwrites it. res must be
// non-nil. With WithDeltaMaintenance enabled the revalidation pool is
// rebuilt per solve and allocates; leave it off for allocation-free
// serving.
func (s *Solver) SolveInto(ctx context.Context, d *Dataset, k int, res *Result) error {
	return s.solveInto(ctx, d, k, s.cfg.algorithm, res)
}

// solveInto is SolveInto running the given algorithm (resolved against
// d's dimensionality) instead of the configured one, so Revalidate's
// recompute keeps the prior result's algorithm whatever this Solver is
// configured with.
func (s *Solver) solveInto(ctx context.Context, d *Dataset, k int, algorithm Algorithm, res *Result) error {
	if res == nil {
		return errors.New("rrr: nil result")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if d == nil {
		return errors.New("rrr: nil dataset")
	}
	if k <= 0 {
		return fmt.Errorf("rrr: k must be positive, got %d", k)
	}
	algorithm = algorithm.Resolve(d.Dims())
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return &Error{Kind: ErrCanceled, Op: "solve", Algorithm: algorithm, Cause: err,
			Partial: PartialStats{Elapsed: time.Since(start)}}
	}
	if err := validateDims(algorithm, d.Dims()); err != nil {
		return err
	}
	if k > d.N() {
		return infeasibleK(algorithm, k, d.N())
	}
	if err := validateAlgorithm(algorithm); err != nil {
		return err
	}

	arena := s.arenas.get()
	defer s.arenas.put(arena)
	if err := s.solveOnInto(ctx, d, k, algorithm, start, arena, res); err != nil {
		return err
	}
	if s.cfg.deltaMaintenance {
		// Record the revalidation pool for Revalidate: an exact containment
		// pool of the full dataset, sound for any later mutation.
		rp, err := delta.BuildPool(ctx, d, k)
		if err != nil {
			return s.wrapSolveError(algorithm, start, err)
		}
		res.revalPool = rp
	}
	return nil
}

// solveOnInto runs the resolved algorithm on runData and assembles the
// public result into res, resetting every field so a reused Result never
// leaks a previous solve's counters. SolveInto and Revalidate's repair
// share it.
func (s *Solver) solveOnInto(ctx context.Context, runData *Dataset, k int, algorithm Algorithm, start time.Time, arena *solveArena, res *Result) error {
	rec, parent := trace.FromContext(ctx)
	sid := rec.Start(solvePhase(algorithm), parent)
	ids, stats, err := s.runAlgorithm(ctx, runData, k, algorithm, s.progressHook(algorithm, start), arena)
	rec.End(sid)
	if err != nil {
		return s.wrapSolveError(algorithm, start, err)
	}
	// ids may alias the arena; copy into the caller-owned slice before the
	// arena returns to the pool.
	res.IDs = append(res.IDs[:0], ids...)
	res.Algorithm = algorithm
	res.K = k
	res.KSets = stats.KSets
	res.Nodes = stats.Nodes
	res.Draws = stats.SamplerDraws
	res.revalPool = nil
	res.Elapsed = time.Since(start)
	return nil
}

// runAlgorithm dispatches the resolved algorithm on a dataset. Every
// solve path shares it so the paths cannot drift. The arena carries the
// per-solve scratch; the returned IDs may alias it.
func (s *Solver) runAlgorithm(ctx context.Context, d *Dataset, k int, algorithm Algorithm, onProgress func(algo.Stats), arena *solveArena) ([]int, algo.Stats, error) {
	switch algorithm {
	case Algo2DRRR:
		return algo.TwoDRRRScratch(ctx, d, k, s.twoDOptions(onProgress), &arena.twod)
	case AlgoMDRRR:
		opt := s.mdrrrOptions(onProgress)
		opt.Sampler.Scratch = &arena.sampler
		r, err := algo.MDRRR(ctx, d, k, opt)
		if err != nil {
			return nil, algo.Stats{}, err
		}
		return r.IDs, r.Stats, nil
	case AlgoMDRC:
		r, err := algo.MDRC(ctx, d, k, s.mdrcOptions(onProgress))
		if err != nil {
			return nil, algo.Stats{}, err
		}
		return r.IDs, r.Stats, nil
	}
	return nil, algo.Stats{}, fmt.Errorf("rrr: unknown algorithm %q", algorithm)
}

// solvePhase names the span of an algorithm run. These are the phase
// labels of rrrd_solve_phase_seconds, so keep them stable.
func solvePhase(algorithm Algorithm) string {
	switch algorithm {
	case Algo2DRRR:
		return "sweep"
	case AlgoMDRRR:
		return "sample"
	default:
		return "recurse"
	}
}

// twoDOptions assembles the 2DRRR configuration from the solver options.
func (s *Solver) twoDOptions(onProgress func(algo.Stats)) algo.TwoDOptions {
	coverStrategy := algo.CoverMaxGain
	if s.cfg.optimalCover {
		coverStrategy = algo.CoverOptimalSweep
	}
	return algo.TwoDOptions{Cover: coverStrategy, OnProgress: onProgress}
}

// mdrrrOptions assembles the MDRRR configuration, K-SETr's soft cap or
// hard budget included, from the solver options.
func (s *Solver) mdrrrOptions(onProgress func(algo.Stats)) algo.MDRRROptions {
	maxDraws, hard := s.cfg.softMaxDraws, false
	if s.cfg.drawBudget > 0 {
		maxDraws, hard = s.cfg.drawBudget, true
	}
	strategy := algo.HitGreedy
	if s.cfg.epsilonNetHitting {
		strategy = algo.HitEpsilonNet
	}
	return algo.MDRRROptions{
		Sampler: kset.SampleOptions{
			Termination:  s.cfg.samplerTermination,
			MaxDraws:     maxDraws,
			HardMaxDraws: hard,
			Seed:         s.cfg.seed,
		},
		Strategy:   strategy,
		OnProgress: onProgress,
	}
}

// mdrcOptions assembles the MDRC configuration from the solver options.
func (s *Solver) mdrcOptions(onProgress func(algo.Stats)) algo.MDRCOptions {
	pick := algo.PickFirst
	if s.cfg.pickMinMaxRank {
		pick = algo.PickMinMaxRank
	}
	return algo.MDRCOptions{
		Pick:         pick,
		MaxNodes:     s.cfg.nodeBudget,
		HardMaxNodes: s.cfg.nodeBudget > 0,
		OnProgress:   onProgress,
	}
}

// MinimalKForSize solves the paper's dual formulation (Section 2): given a
// budget on the output size, find the smallest k for which a representative
// of at most that size exists, by binary search over k with a solve as the
// oracle. It returns the achieved k and its representative.
//
// MinimalKForSize is a one-item SolveBatch of the Request{Size: size}, so
// its answer is that batch item's, and the result's Elapsed counts from
// the start of the search. The context is checked between binary-search
// probes as well as inside each probe. Every *Error it returns has Op
// "minimal-k"; on interruption it carries the best (smallest-k) feasible
// result found so far in Partial.BestK/Partial.Best, so callers keep the
// strongest answer the budget bought.
func (s *Solver) MinimalKForSize(ctx context.Context, d *Dataset, size int) (int, *Result, error) {
	if size <= 0 {
		return 0, nil, fmt.Errorf("rrr: size budget must be positive, got %d", size)
	}
	br, err := s.SolveBatch(ctx, d, []Request{{Size: size}})
	if err != nil {
		// The batch's one typed call error is its dimensionality check.
		var e *Error
		if errors.As(err, &e) {
			out := *e
			out.Op = "minimal-k"
			return 0, nil, &out
		}
		return 0, nil, err
	}
	it := br.Items[0]
	return it.K, it.Result, it.Err
}

// validateAlgorithm rejects names outside the known algorithm set before
// any work runs. Solve and SolveBatch share it.
func validateAlgorithm(algorithm Algorithm) error {
	switch algorithm {
	case Algo2DRRR, AlgoMDRRR, AlgoMDRC:
		return nil
	}
	return fmt.Errorf("rrr: unknown algorithm %q", algorithm)
}

// validateDims rejects algorithm/dimensionality mismatches with the typed
// infeasible error. Solve, SolveBatch and the serving layer share this
// single source of truth.
func validateDims(algorithm Algorithm, dims int) error {
	switch {
	case algorithm == Algo2DRRR && dims != 2:
		return &Error{Kind: ErrInfeasible, Op: "solve", Algorithm: algorithm,
			Cause: fmt.Errorf("2drrr requires a 2-D dataset, got %d attributes", dims)}
	case algorithm != Algo2DRRR && dims < 2:
		return &Error{Kind: ErrInfeasible, Op: "solve", Algorithm: algorithm,
			Cause: fmt.Errorf("%s requires at least 2 attributes, got %d", algorithm, dims)}
	}
	return nil
}

// infeasibleK is the typed error for a rank target exceeding the dataset
// size. The internal sweep rejects such k with sweep.ErrKExceedsN; this is
// the same condition at the public surface, caught before any algorithm
// runs so single solves and batch items report identically.
func infeasibleK(algorithm Algorithm, k, n int) *Error {
	return &Error{Kind: ErrInfeasible, Op: "solve", Algorithm: algorithm,
		Cause: fmt.Errorf("k=%d exceeds dataset size n=%d", k, n)}
}

// progressHook adapts the user's Progress callback to the internal
// algo.Stats shape; nil when no callback is registered, so the algorithms
// skip the plumbing entirely.
func (s *Solver) progressHook(algorithm Algorithm, start time.Time) func(algo.Stats) {
	if s.cfg.progress == nil {
		return nil
	}
	fn := s.cfg.progress
	return func(st algo.Stats) {
		fn(Progress{
			Algorithm: algorithm,
			Nodes:     st.Nodes,
			KSets:     st.KSets,
			Draws:     st.SamplerDraws,
			Elapsed:   time.Since(start),
		})
	}
}

// wrapSolveError converts internal interruption errors to the public typed
// hierarchy; everything else passes through untouched.
func (s *Solver) wrapSolveError(algorithm Algorithm, start time.Time, err error) error {
	var in *algo.Interrupted
	if errors.As(err, &in) {
		kind := ErrCanceled
		if errors.Is(in.Err, algo.ErrBudget) {
			kind = ErrBudgetExhausted
		}
		return &Error{Kind: kind, Op: "solve", Algorithm: algorithm, Cause: in.Err,
			Partial: PartialStats{
				Nodes:   in.Stats.Nodes,
				KSets:   in.Stats.KSets,
				Draws:   in.Stats.SamplerDraws,
				Elapsed: time.Since(start),
			}}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &Error{Kind: ErrCanceled, Op: "solve", Algorithm: algorithm, Cause: err,
			Partial: PartialStats{Elapsed: time.Since(start)}}
	}
	return err
}
