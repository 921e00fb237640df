package service

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WritePrometheus renders the daemon's operational counters in the
// Prometheus text exposition format (version 0.0.4) — the same numbers
// /v1/stats serves as JSON, shaped for a scraper: monotone counters carry
// the _total suffix, the per-algorithm latency histograms become native
// Prometheus histograms with cumulative le buckets in seconds.
//
// The implementation is hand-rolled on purpose: the repository takes no
// dependencies beyond the standard library, and the format is a dozen
// lines of text.
func (m *Metrics) WritePrometheus(w io.Writer) { m.writeExposition(w, false) }

// WriteOpenMetrics renders the same families in the OpenMetrics text
// format (version 1.0.0): counter metadata drops the _total suffix from
// the family name (samples keep it), the exposition ends with # EOF, and
// histogram buckets carry `# {trace_id="..."} value ts` exemplars
// pointing at the trace behind their latest traced observation — the
// jump from "this bucket is slow" to GET /v1/traces/{id} (or the
// collector's view of the exported span tree).
//
// One emitter serves both formats so they cannot drift; the promdrift
// test additionally holds both surfaces equal family-by-family.
func (m *Metrics) WriteOpenMetrics(w io.Writer) { m.writeExposition(w, true) }

func (m *Metrics) writeExposition(w io.Writer, om bool) {
	if m == nil {
		return
	}
	// family writes one HELP/TYPE header. In OpenMetrics the family name
	// is the sample name minus the counter's mandatory _total suffix;
	// classic text repeats the full name in both places.
	family := func(name, typ, help string) {
		if om && typ == "counter" {
			name = strings.TrimSuffix(name, "_total")
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	gauge := func(name, help string, v float64) {
		family(name, "gauge", help)
		fmt.Fprintf(w, "%s %g\n", name, v)
	}

	gauge("rrrd_uptime_seconds", "Seconds since the metrics were created.", time.Since(m.start).Seconds())
	for c, d := range counterTable {
		v := m.counters[c].Load()
		// Gauges render through %g like the derived gauges around them;
		// counters as exact integers (%g would switch to exponent form).
		if d.typ == "gauge" {
			gauge(d.name, d.help, float64(v))
			continue
		}
		family(d.name, d.typ, d.help)
		fmt.Fprintf(w, "%s %d\n", d.name, v)
	}
	// Emitted unconditionally (-1 = no snapshot yet, exactly as the JSON
	// surface reports it) so the series set never depends on state.
	gauge("rrrd_snapshot_age_seconds", "Seconds since the registry snapshot was last written (-1 when none).", m.snapshotAge())

	rt := readRuntime()
	gauge("rrrd_goroutines", "Goroutines currently live in the process.", float64(rt.Goroutines))
	gauge("rrrd_heap_alloc_bytes", "Heap bytes allocated and still in use.", float64(rt.HeapAllocBytes))
	family("rrrd_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	fmt.Fprintf(w, "rrrd_gc_pause_seconds_total %g\n", rt.GCPauseSecondsTotal)

	// Latency histograms, one series set per algorithm, then the
	// per-phase histograms from the trace hooks: the same spans the /v1
	// traces surface exposes, aggregated.
	histograms := func(name, help, label string, hs map[string]*histogram) {
		family(name, "histogram", help)
		for _, e := range m.sortedHistograms(hs) {
			h := e.h
			cum := int64(0)
			for i := range h.counts {
				cum += h.counts[i].Load()
				le := "+Inf"
				if i < len(h.bounds) {
					le = fmt.Sprintf("%g", h.bounds[i].Seconds())
				}
				fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d", name, label, e.name, le, cum)
				if om {
					// The exemplar stays on the observation's native bucket,
					// so its value is always within this le bound as the
					// spec requires (cumulative buckets would otherwise let
					// it leak upward).
					if ex := h.exemplars[i].Load(); ex != nil {
						fmt.Fprintf(w, " # {trace_id=%q} %g %.3f", ex.traceID, ex.value, float64(ex.atNanos)/1e9)
					}
				}
				io.WriteString(w, "\n")
			}
			fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, e.name, time.Duration(h.sum.Load()).Seconds())
			fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, e.name, h.total.Load())
		}
	}
	histograms("rrrd_solve_duration_seconds", "Successful computation latency by algorithm.", "algorithm", m.latencies)
	histograms("rrrd_solve_phase_seconds", "Solve-phase duration from trace spans, by phase.", "phase", m.phases)

	if om {
		io.WriteString(w, "# EOF\n")
	}
}
