// Package rrr computes rank-regret representatives: the smallest subsets of
// a multi-attribute dataset guaranteed to contain at least one of the top-k
// tuples of every linear ranking function. It is a from-scratch Go
// implementation of "RRR: Rank-Regret Representative" (Asudeh, Nazi, Zhang,
// Das, Jagadish — SIGMOD 2019), including the paper's three algorithms
// (2DRRR, MDRRR, MDRC), the k-set machinery they build on, the HD-RRMS
// regret-ratio baseline they compare against, and a benchmark harness that
// regenerates every figure of the paper's evaluation.
//
// # Why rank-regret
//
// A skyline or convex hull is guaranteed to contain everyone's top choice
// but can be nearly as large as the data. Score-based regret-minimizing
// sets are small, but a "1% score regret" can hide an enormous rank swing
// when tuples crowd a narrow score band (the paper's wine-rating example).
// Rank-regret promises something users actually understand: "this 10-tuple
// subset contains a top-100 flight for you, whatever your linear weights".
//
// # Quickstart
//
//	d, _ := rrr.NewDataset(points)        // points in [0,1]^d, higher = better
//	solver := rrr.New()                   // functional options tune algorithms
//	res, _ := solver.Solve(ctx, d, 100)
//	fmt.Println(res.IDs)                  // small set hitting every top-100
//
// Solve dispatches to 2DRRR for two-dimensional data and MDRC otherwise;
// options like WithAlgorithm, WithSeed, WithNodeBudget and WithProgress
// select algorithms and tuning explicitly. The context is honored inside
// every algorithm's hot loop: cancellation and deadlines interrupt a
// running solve within microseconds, returning a typed *Error (see
// ErrCanceled, ErrBudgetExhausted, ErrInfeasible) that reports the work
// done before the stop. SolveBatch answers many queries — several k
// values, dual MinimalKForSize size budgets — through one shared
// expensive phase (one angular sweep, one K-SETr sampling stream), with
// per-item results identical to the equivalent sequential calls.
// WithDeltaMaintenance and Revalidate carry a result across dataset
// mutations, re-solving only when an exact containment test says the
// answer may have changed (DESIGN.md §8). Raw data with mixed "higher is
// better"/"lower is better" attributes can be loaded and normalized with
// the Table helpers (DOTLike, BNLike, ReadCSV, Table.Normalize).
//
// # Guarantees
//
// Per the paper: 2DRRR returns a set no larger than the optimal RRR with
// rank-regret at most 2k (Theorems 3–4); MDRRR guarantees rank-regret at
// most k over every discovered k-set with an O(d·log(d·c)) size ratio
// (Section 5.2); MDRC guarantees rank-regret at most d·k (Theorem 6). In
// the experiments all three stay at or below k. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-versus-measured results,
// including two reproduction findings (the Algorithm 2 greedy's
// suboptimality and the k=1 MDRC non-termination corner).
package rrr
