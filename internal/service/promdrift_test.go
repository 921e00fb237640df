package service

import (
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file guards the two metrics surfaces against drifting apart: the
// JSON /v1/stats snapshot and the Prometheus /v1/metrics exposition are
// the same numbers, and a counter added to one without the other is a
// bug this test turns into a failure. It also checks the exposition is
// well-formed per the text format (0.0.4) strictly enough that a real
// scraper would ingest it.

// promSample is one parsed sample line.
type promSample struct {
	labels map[string]string
	value  float64
}

// promFamily is one HELP/TYPE block with its samples, keyed by the full
// sample name (family, family_bucket, family_sum, family_count).
type promFamily struct {
	help    string
	typ     string
	samples map[string][]promSample
}

// parsePromText is a strict parser for the subset of the Prometheus text
// exposition format the daemon emits. It fails the test on structural
// violations a lenient parser would paper over: samples before their
// TYPE, TYPE without HELP, duplicate families, malformed values,
// non-cumulative histogram buckets, or a missing +Inf bucket.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := make(map[string]*promFamily)
	var cur *promFamily
	var curName string
	var pendingHelp, pendingHelpName string

	sampleFamily := func(sampleName string) (string, bool) {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(sampleName, suffix)
			if base != sampleName {
				if f, ok := families[base]; ok && f.typ == "histogram" {
					return base, true
				}
			}
		}
		_, ok := families[sampleName]
		return sampleName, ok
	}

	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if line == "" {
			continue // only the trailing newline produces this
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", lineNo, line)
			}
			pendingHelp, pendingHelpName = help, name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", lineNo, typ)
			}
			if pendingHelpName != name {
				t.Fatalf("line %d: TYPE %s not directly preceded by its HELP (saw HELP for %q)", lineNo, name, pendingHelpName)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate family %s", lineNo, name)
			}
			cur = &promFamily{help: pendingHelp, typ: typ, samples: make(map[string][]promSample)}
			curName = name
			families[name] = cur
			pendingHelp, pendingHelpName = "", ""
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment: %q", lineNo, line)
		default:
			name, labels, value := parsePromSample(t, lineNo, line)
			fam, ok := sampleFamily(name)
			if !ok {
				t.Fatalf("line %d: sample %s before any TYPE declaration", lineNo, name)
			}
			if fam != curName {
				t.Fatalf("line %d: sample %s inside family %s block — families must be contiguous", lineNo, name, curName)
			}
			cur.samples[name] = append(cur.samples[name], promSample{labels: labels, value: value})
		}
	}

	for name, f := range families {
		checkFamilyShape(t, name, f)
	}
	return families
}

// parsePromSample splits `name{k="v",...} value` (labels optional).
func parsePromSample(t *testing.T, lineNo int, line string) (string, map[string]string, float64) {
	t.Helper()
	name := line
	labels := map[string]string{}
	if open := strings.IndexByte(line, '{'); open >= 0 {
		name = line[:open]
		closeIdx := strings.IndexByte(line, '}')
		if closeIdx < open {
			t.Fatalf("line %d: unbalanced label braces: %q", lineNo, line)
		}
		for _, pair := range strings.Split(line[open+1:closeIdx], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("line %d: malformed label pair %q", lineNo, pair)
			}
			unq, err := strconv.Unquote(v)
			if err != nil {
				t.Fatalf("line %d: label value not quoted: %q", lineNo, pair)
			}
			labels[k] = unq
		}
		line = line[closeIdx+1:]
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: sample without value: %q", lineNo, line)
		}
		name = line[:sp]
		line = line[sp:]
	}
	for _, r := range name {
		if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			t.Fatalf("line %d: invalid metric name %q", lineNo, name)
		}
	}
	value, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value: %v", lineNo, err)
	}
	return name, labels, value
}

// checkFamilyShape enforces per-type sample structure: scalars carry
// exactly one unlabeled sample; histograms carry cumulative buckets
// ending in +Inf whose terminal count matches _count, per label set.
func checkFamilyShape(t *testing.T, name string, f *promFamily) {
	t.Helper()
	switch f.typ {
	case "counter", "gauge":
		ss := f.samples[name]
		if len(ss) != 1 || len(f.samples) != 1 {
			t.Fatalf("family %s: want exactly one sample, got %v", name, f.samples)
		}
		if len(ss[0].labels) != 0 {
			t.Fatalf("family %s: scalar sample unexpectedly labeled: %v", name, ss[0].labels)
		}
		if f.typ == "counter" && ss[0].value < 0 {
			t.Fatalf("family %s: negative counter %g", name, ss[0].value)
		}
	case "histogram":
		// Group buckets by their non-le label set.
		series := make(map[string][]promSample)
		var label string
		for _, s := range f.samples[name+"_bucket"] {
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("family %s: bucket without le label", name)
			}
			_ = le
			key := ""
			for k, v := range s.labels {
				if k != "le" {
					key = k + "=" + v
					label = k
				}
			}
			series[key] = append(series[key], s)
		}
		for key, buckets := range series {
			last := -1.0
			cum := int64(-1)
			for i, b := range buckets {
				le := b.labels["le"]
				if i == len(buckets)-1 {
					if le != "+Inf" {
						t.Fatalf("family %s{%s}: last bucket le=%q, want +Inf", name, key, le)
					}
				} else {
					bound, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("family %s{%s}: bad le %q", name, key, le)
					}
					if bound <= last {
						t.Fatalf("family %s{%s}: le bounds not increasing at %q", name, key, le)
					}
					last = bound
				}
				if int64(b.value) < cum {
					t.Fatalf("family %s{%s}: buckets not cumulative at le=%q", name, key, le)
				}
				cum = int64(b.value)
			}
			// _count must equal the +Inf bucket for the same label set.
			for _, c := range f.samples[name+"_count"] {
				if label != "" && c.labels[label] != strings.TrimPrefix(key, label+"=") {
					continue
				}
				if int64(c.value) != cum {
					t.Fatalf("family %s{%s}: _count=%g != +Inf bucket %d", name, key, c.value, cum)
				}
			}
		}
	}
}

// statsToProm is THE mapping this test exists to defend: every /v1/stats
// leaf on the left, its Prometheus family on the right. Adding a field
// to Snapshot without extending WritePrometheus (or vice versa) breaks
// one of the two directions below.
var statsToProm = map[string]string{
	"uptime_seconds":                 "rrrd_uptime_seconds",
	"cache_hits":                     "rrrd_cache_hits_total",
	"cache_misses":                   "rrrd_cache_misses_total",
	"in_flight":                      "rrrd_inflight_computations",
	"failures":                       "rrrd_failures_total",
	"canceled":                       "rrrd_canceled_total",
	"batches":                        "rrrd_batches_total",
	"batch_items":                    "rrrd_batch_items_total",
	"coalesced_joins":                "rrrd_coalesced_joins_total",
	"delta.mutations":                "rrrd_delta_mutations_total",
	"delta.mutated_tuples":           "rrrd_delta_mutated_tuples_total",
	"delta.revalidated":              "rrrd_delta_revalidated_total",
	"delta.repaired":                 "rrrd_delta_repaired_total",
	"delta.recomputed":               "rrrd_delta_recomputed_total",
	"persist.wal_appends":            "rrrd_wal_appends_total",
	"persist.wal_bytes":              "rrrd_wal_bytes_total",
	"persist.replayed_batches":       "rrrd_replayed_batches_total",
	"persist.warmed_answers":         "rrrd_warmed_answers_total",
	"persist.snapshot_age_seconds":   "rrrd_snapshot_age_seconds",
	"watch.subscribers":              "rrrd_watch_subscribers",
	"watch.events":                   "rrrd_watch_events_total",
	"watch.dropped":                  "rrrd_watch_dropped_total",
	"watch.resumes":                  "rrrd_watch_resumes_total",
	"trace.sampled":                  "rrrd_trace_sampled_total",
	"trace.unsampled":                "rrrd_trace_unsampled_total",
	"trace.exported_spans":           "rrrd_trace_export_spans_total",
	"trace.exported_batches":         "rrrd_trace_export_batches_total",
	"trace.export_retries":           "rrrd_trace_export_retries_total",
	"trace.export_failures":          "rrrd_trace_export_failures_total",
	"trace.export_dropped":           "rrrd_trace_export_dropped_total",
	"runtime.goroutines":             "rrrd_goroutines",
	"runtime.heap_alloc_bytes":       "rrrd_heap_alloc_bytes",
	"runtime.gc_pause_seconds_total": "rrrd_gc_pause_seconds_total",
	"latency_by_algorithm":           "rrrd_solve_duration_seconds",
	"latency_by_phase":               "rrrd_solve_phase_seconds",
}

// statsDerived are /v1/stats leaves with no Prometheus family of their
// own because a scraper derives them: documented exemptions, not drift.
var statsDerived = map[string]string{
	"computations": "sum(rrrd_solve_duration_seconds_count) across algorithms",
}

// opaqueStatsKeys are Snapshot maps keyed by dynamic names (algorithm,
// phase); the drift check maps the whole map to one histogram family
// instead of walking its per-key internals.
var opaqueStatsKeys = map[string]bool{
	"latency_by_algorithm": true,
	"latency_by_phase":     true,
}

// statsLeafPaths flattens the /v1/stats JSON object into dotted leaf
// paths, stopping at opaque dynamic-keyed maps.
func statsLeafPaths(prefix string, v any, out *[]string) {
	obj, ok := v.(map[string]any)
	if !ok {
		*out = append(*out, prefix)
		return
	}
	for k, child := range obj {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		if opaqueStatsKeys[p] {
			*out = append(*out, p)
			continue
		}
		statsLeafPaths(p, child, out)
	}
}

func TestPrometheusExpositionMatchesStats(t *testing.T) {
	ts, _ := newTestServer(t)
	defer ts.Close()

	// Drive enough traffic that the dynamic families (per-algorithm and
	// per-phase histograms) have series: one cold solve (miss + local
	// trace + phases) and one warm hit.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/representative?dataset=flights&k=10")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	families := parsePromText(t, raw)

	var snap map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &snap); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}

	var leaves []string
	statsLeafPaths("", snap, &leaves)
	sort.Strings(leaves)

	// Direction 1: every stats leaf is mapped or exempted.
	for _, leaf := range leaves {
		_, mapped := statsToProm[leaf]
		_, derived := statsDerived[leaf]
		switch {
		case mapped && derived:
			t.Errorf("stats leaf %q is both mapped and exempted — pick one", leaf)
		case !mapped && !derived:
			t.Errorf("stats leaf %q has no Prometheus family and no documented exemption: extend WritePrometheus or statsDerived", leaf)
		case mapped:
			if _, ok := families[statsToProm[leaf]]; !ok {
				t.Errorf("stats leaf %q maps to %s, which /v1/metrics does not emit", leaf, statsToProm[leaf])
			}
		}
	}

	// Direction 2: every emitted family is reachable from a stats leaf.
	reverse := make(map[string]string, len(statsToProm))
	for leaf, fam := range statsToProm {
		if prev, dup := reverse[fam]; dup {
			t.Errorf("families must map 1:1, but %s has two stats leaves: %q and %q", fam, prev, leaf)
		}
		reverse[fam] = leaf
	}
	for fam := range families {
		if !strings.HasPrefix(fam, "rrrd_") {
			t.Errorf("family %q does not carry the rrrd_ namespace prefix", fam)
		}
		if _, ok := reverse[fam]; !ok {
			t.Errorf("Prometheus family %s has no /v1/stats counterpart: extend Snapshot or the statsToProm map", fam)
		}
	}

	// Mapped leaves that cannot move between the two HTTP calls (no
	// traffic in between) must agree exactly in value.
	stable := []string{
		"cache_hits", "cache_misses", "in_flight", "failures", "canceled",
		"batches", "batch_items", "coalesced_joins",
		"delta.mutations", "delta.mutated_tuples", "delta.revalidated", "delta.repaired", "delta.recomputed",
		"persist.wal_appends", "persist.wal_bytes", "persist.replayed_batches", "persist.warmed_answers",
		"watch.subscribers", "watch.events", "watch.dropped", "watch.resumes",
		"trace.sampled", "trace.unsampled",
		"trace.exported_spans", "trace.exported_batches",
		"trace.export_retries", "trace.export_failures", "trace.export_dropped",
	}
	for _, leaf := range stable {
		want := statsLeafValue(t, snap, leaf)
		fam := families[statsToProm[leaf]]
		got := fam.samples[statsToProm[leaf]][0].value
		if got != want {
			t.Errorf("%s: /v1/metrics says %g, /v1/stats says %g", statsToProm[leaf], got, want)
		}
	}

	// The activity above must actually show up, or the value checks
	// compared a wall of zeros.
	if v := statsLeafValue(t, snap, "cache_hits"); v < 1 {
		t.Errorf("expected at least one cache hit, got %g", v)
	}
	if v := statsLeafValue(t, snap, "cache_misses"); v < 1 {
		t.Errorf("expected at least one cache miss, got %g", v)
	}
	phases := families["rrrd_solve_phase_seconds"]
	if len(phases.samples["rrrd_solve_phase_seconds_count"]) == 0 {
		t.Error("cold solve produced no rrrd_solve_phase_seconds series — phase sink disconnected?")
	}
}

// exemplarRE matches the OpenMetrics exemplar suffix the daemon emits on
// histogram bucket lines: `# {trace_id="<32 hex>"} value timestamp`.
var exemplarRE = regexp.MustCompile(` # \{trace_id="([0-9a-f]{32})"\} ([0-9.eE+-]+) [0-9.]+$`)

// TestOpenMetricsMatchesClassic holds the OpenMetrics rendering to the
// classic one family-by-family: the formats differ only where the specs
// force them to (counter metadata names, exemplars, the # EOF
// terminator). Both come from one emitter, so a divergence here means a
// format-conditional crept into the wrong branch.
func TestOpenMetricsMatchesClassic(t *testing.T) {
	ts, _ := newTestServer(t)
	defer ts.Close()

	// One traced cold solve, so the histograms have series and at least
	// one bucket carries an exemplar with a known trace ID.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/representative?dataset=flights&k=10", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced solve: status %d", resp.StatusCode)
	}

	classicResp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	classic := readAll(t, classicResp)
	omResp, err := http.Get(ts.URL + "/v1/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := omResp.Header.Get("Content-Type"); ct != "application/openmetrics-text; version=1.0.0; charset=utf-8" {
		t.Errorf("openmetrics Content-Type = %q", ct)
	}
	om := readAll(t, omResp)

	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("openmetrics exposition does not end with # EOF")
	}
	if strings.Contains(classic, " # {") {
		t.Error("classic exposition carries exemplars — they are OpenMetrics-only")
	}

	// typeLines maps family name → declared type from # TYPE lines.
	typeLines := func(text string) map[string]string {
		out := make(map[string]string)
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, typ, _ := strings.Cut(rest, " ")
				out[name] = typ
			}
		}
		return out
	}
	classicTypes, omTypes := typeLines(classic), typeLines(om)
	if len(classicTypes) != len(omTypes) {
		t.Errorf("family counts differ: classic %d, openmetrics %d", len(classicTypes), len(omTypes))
	}
	for fam, typ := range classicTypes {
		omFam := fam
		if typ == "counter" {
			omFam = strings.TrimSuffix(fam, "_total")
		}
		if got, ok := omTypes[omFam]; !ok || got != typ {
			t.Errorf("classic family %s (%s) has no openmetrics twin %s (got %q)", fam, typ, omFam, got)
		}
	}

	// Sample lines (metric name + labels + value) must be identical once
	// exemplars are stripped — counters keep their _total sample names in
	// both formats, so only time-varying values may differ. Compare the
	// name+labels part of every line; values for stable counters were
	// already held equal to /v1/stats by the sibling test.
	sampleKeys := func(text string) map[string]bool {
		out := make(map[string]bool)
		for _, line := range strings.Split(text, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			line = exemplarRE.ReplaceAllString(line, " <exemplar>")
			// Strip the value: the key is everything up to the last space.
			if i := strings.LastIndexByte(strings.TrimSuffix(line, " <exemplar>"), ' '); i > 0 {
				out[strings.TrimSuffix(line, " <exemplar>")[:i]] = true
			}
		}
		return out
	}
	classicKeys, omKeys := sampleKeys(classic), sampleKeys(om)
	for k := range classicKeys {
		if !omKeys[k] {
			t.Errorf("classic sample %q missing from openmetrics", k)
		}
	}
	for k := range omKeys {
		if !classicKeys[k] {
			t.Errorf("openmetrics sample %q missing from classic", k)
		}
	}

	// The traced solve's exemplar is present, carries the propagated
	// trace ID, and sits on a bucket whose bound admits its value.
	wantID := strings.Split(testTraceparent, "-")[1]
	found := false
	for _, line := range strings.Split(om, "\n") {
		m := exemplarRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		found = true
		if m[1] != wantID {
			t.Errorf("exemplar trace_id = %s, want %s (line %q)", m[1], wantID, line)
		}
		if !strings.Contains(line, "_bucket{") {
			t.Errorf("exemplar on a non-bucket line: %q", line)
		}
		val, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("exemplar value %q: %v", m[2], err)
		}
		if le := extractLabel(line, "le"); le != "+Inf" {
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("le %q: %v", le, err)
			}
			if val > bound {
				t.Errorf("exemplar value %g exceeds its bucket bound le=%g: %q", val, bound, line)
			}
		}
	}
	if !found {
		t.Error("traced solve left no exemplar in the openmetrics exposition")
	}

	// Unknown formats are a client error, not a silent default.
	badResp, err := http.Get(ts.URL + "/v1/metrics?format=bogus")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=bogus: status %d, want 400", badResp.StatusCode)
	}
}

// extractLabel pulls one label's value out of a sample line.
func extractLabel(line, name string) string {
	i := strings.Index(line, name+`="`)
	if i < 0 {
		return ""
	}
	rest := line[i+len(name)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// statsLeafValue walks a dotted path into the decoded stats object.
func statsLeafValue(t *testing.T, snap map[string]any, path string) float64 {
	t.Helper()
	var v any = snap
	for _, part := range strings.Split(path, ".") {
		obj, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("stats path %q: %v is not an object", path, v)
		}
		v, ok = obj[part]
		if !ok {
			t.Fatalf("stats path %q: key %q missing", path, part)
		}
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("stats path %q: leaf %v is not a number", path, v)
	}
	return f
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
