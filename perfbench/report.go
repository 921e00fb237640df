package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one entry of the result line's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench carries one invocation's settings and tallies: the attempted and
// failed operation counts, the answer-check problems, and the metrics the
// result line reports.
type bench struct {
	seed     int64
	measure  time.Duration
	traced   bool
	dir      string
	attempts int
	fails    int
	problems []string
	metrics  map[string]metric
	tr       *tracer
}

// attempt counts one operation and, when err is non-nil, its failure.
func (b *bench) attempt(err error) {
	b.attempts++
	if err != nil {
		b.fail("%v", err)
	}
}

// fail counts a failed operation and records why; any failure makes the
// run incorrect.
func (b *bench) fail(format string, args ...any) {
	b.fails++
	b.problem(format, args...)
}

// problem records a failed check that is not itself an operation.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	b.problems = append(b.problems, msg)
}

// set records a metric for the result line.
func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// row prints one named figure of the human-readable report.
func row(name, unit string, v float64, note string) {
	fmt.Printf("  %-28s %14.4f %-8s %s\n", name, v, unit, note)
}

// stepRow prints a figure measured on an open-loop step, or marks it
// unreported when the step was invalid.
func stepRow(name, unit string, v float64, n int, valid bool) {
	if !valid {
		fmt.Printf("  %-28s %14s %-8s not reported: the step was invalid (generator lag or a growing backlog)\n", name, "-", unit)
		return
	}
	row(name, unit, v, fmt.Sprintf("n=%d", n))
}

func section(title string) { fmt.Printf("\n== %s\n", title) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantile returns the nearest-rank q-quantile of v (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(v ...float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// latencies collects per-type latency samples in milliseconds.
type latencies map[string][]float64

func (l latencies) add(kind string, d time.Duration) { l[kind] = append(l[kind], ms(d)) }

// print writes each type's sample count, median and the highest
// percentile with at least ten samples beyond it.
func (l latencies) print(order ...string) {
	for _, k := range order {
		v := l[k]
		tail := ""
		for _, q := range []float64{0.999, 0.99, 0.9} {
			if float64(len(v))*(1-q) >= 10 {
				tail = fmt.Sprintf("p%s=%.3f ms", strings.TrimPrefix(fmt.Sprint(q*100), "0"), quantile(v, q))
				break
			}
		}
		fmt.Printf("  %-12s n=%-6d p50=%.3f ms %s\n", k, len(v), median(v), tail)
	}
}
