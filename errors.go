package rrr

import (
	"errors"
	"fmt"
	"time"
)

// Error kinds. Every *Error wraps exactly one of these, so callers branch
// with errors.Is(err, rrr.ErrCanceled) etc. regardless of which algorithm
// produced the failure.
var (
	// ErrCanceled marks a solve stopped by its context — cancellation or
	// deadline expiry. The error chain also satisfies
	// errors.Is(err, context.Canceled) or context.DeadlineExceeded, so
	// transport layers can distinguish the two without new sentinels.
	ErrCanceled = errors.New("rrr: solve canceled")
	// ErrBudgetExhausted marks a solve stopped by a hard work budget
	// (WithNodeBudget, WithDrawBudget) before completing.
	ErrBudgetExhausted = errors.New("rrr: solve budget exhausted")
	// ErrInfeasible marks a problem with no solution under the requested
	// constraints — an algorithm that cannot run on the dataset's
	// dimensionality, or a dual problem whose size budget no k satisfies.
	ErrInfeasible = errors.New("rrr: problem infeasible")
)

// PartialStats describes the work a solve performed before it stopped, so
// an operator canceling an expensive computation still learns how far it
// got — the paper's costs span five orders of magnitude, and "how many
// nodes did MDRC manage" is the difference between "retry with a budget"
// and "this input is hopeless".
type PartialStats struct {
	// Nodes is the number of MDRC recursion nodes visited.
	Nodes int
	// KSets is the number of distinct k-sets MDRRR discovered.
	KSets int
	// Draws is the number of ranking functions K-SETr sampled.
	Draws int
	// Elapsed is the wall-clock time spent before the stop.
	Elapsed time.Duration
	// BestK and Best carry MinimalKForSize's binary-search state: the
	// smallest k proven to satisfy the size budget before the stop, and
	// its representative. Zero/nil when no probe had succeeded yet (or
	// for plain Solve errors).
	BestK int
	Best  *Result
}

// Error is the typed failure of a Solver operation. It wraps both a kind
// sentinel (ErrCanceled, ErrBudgetExhausted, ErrInfeasible) and the
// underlying cause (e.g. context.Canceled), and carries the partial work
// statistics accumulated before the stop.
type Error struct {
	// Kind is one of ErrCanceled, ErrBudgetExhausted, ErrInfeasible.
	Kind error
	// Op names the operation: "solve" or "minimal-k".
	Op string
	// Algorithm is the resolved algorithm that was running.
	Algorithm Algorithm
	// Partial is the work performed before the stop.
	Partial PartialStats
	// Cause is the underlying error (context.Canceled,
	// context.DeadlineExceeded, or an internal budget error). May be nil.
	Cause error
}

// Error renders the kind, algorithm, elapsed time and work counters.
func (e *Error) Error() string {
	msg := fmt.Sprintf("rrr: %s %s %s", e.Algorithm, e.Op, e.KindName())
	if e.Partial.Elapsed > 0 {
		msg += fmt.Sprintf(" after %v", e.Partial.Elapsed.Round(time.Millisecond))
	}
	switch {
	case e.Partial.Nodes > 0:
		msg += fmt.Sprintf(" (nodes=%d)", e.Partial.Nodes)
	case e.Partial.Draws > 0 || e.Partial.KSets > 0:
		msg += fmt.Sprintf(" (draws=%d, ksets=%d)", e.Partial.Draws, e.Partial.KSets)
	}
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes both the kind sentinel and the cause, so
// errors.Is(err, rrr.ErrCanceled) and errors.Is(err, context.Canceled)
// both hold on a context-canceled solve.
func (e *Error) Unwrap() []error {
	if e.Cause == nil {
		return []error{e.Kind}
	}
	return []error{e.Kind, e.Cause}
}

// KindName returns the wire-friendly name of the error kind — the string
// the daemon's structured error bodies expose ("canceled",
// "budget_exhausted", "infeasible").
func (e *Error) KindName() string {
	switch {
	case errors.Is(e.Kind, ErrCanceled):
		return "canceled"
	case errors.Is(e.Kind, ErrBudgetExhausted):
		return "budget_exhausted"
	case errors.Is(e.Kind, ErrInfeasible):
		return "infeasible"
	}
	return "error"
}
