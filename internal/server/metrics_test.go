package server

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"dpslog"
)

func scrape(t *testing.T, m *Metrics, g Gauges) string {
	t.Helper()
	var sb strings.Builder
	m.WriteTo(&sb, g)
	return sb.String()
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.Observe("POST /v1/sanitize", 200, 0.003)
	m.Observe("POST /v1/sanitize", 200, 0.2)
	m.Observe("POST /v1/sanitize", 400, 0.0001)
	m.Observe("GET /healthz", 200, 0.00005)

	out := scrape(t, m, Gauges{
		Workers: 4, WorkersBusy: 1, QueueDepth: 2,
		Jobs:         map[JobState]int{JobDone: 3},
		CacheEntries: 5, CacheHits: 7, CacheMisses: 9,
	})

	for _, want := range []string{
		`slserve_requests_total{handler="POST /v1/sanitize",code="200"} 2`,
		`slserve_requests_total{handler="POST /v1/sanitize",code="400"} 1`,
		`slserve_requests_total{handler="GET /healthz",code="200"} 1`,
		`slserve_request_duration_seconds_bucket{handler="POST /v1/sanitize",le="+Inf"} 3`,
		`slserve_request_duration_seconds_count{handler="POST /v1/sanitize"} 3`,
		`slserve_workers 4`,
		`slserve_workers_busy 1`,
		`slserve_queue_depth 2`,
		`slserve_jobs{state="done"} 3`,
		`slserve_jobs{state="queued"} 0`,
		`slserve_plan_cache_entries 5`,
		`slserve_plan_cache_hits_total 7`,
		`slserve_plan_cache_misses_total 9`,
		`# TYPE slserve_request_duration_seconds histogram`,
		`# TYPE slserve_requests_total counter`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Bucket bounds (le labels) must render in fixed-point notation so the
	// label set is stable; sample values may use scientific notation.
	if strings.Contains(out, `le="0.0005"`) == false || strings.Contains(out, `le="5e-`) {
		t.Errorf("bucket bounds must use fixed-point notation:\n%s", out)
	}
}

func TestMetricsHistogramCumulative(t *testing.T) {
	m := NewMetrics()
	// One observation per bucket bound, plus one beyond the last.
	for _, s := range []float64{0.0004, 0.009, 0.04, 0.9, 42} {
		m.Observe("h", 200, s)
	}
	out := scrape(t, m, Gauges{})
	prev := int64(-1)
	count := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `slserve_request_duration_seconds_bucket{handler="h"`) {
			continue
		}
		count++
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts must be cumulative (non-decreasing): %q after %d", line, prev)
		}
		prev = v
	}
	if count != len(latencyBuckets)+1 {
		t.Fatalf("want %d bucket lines (incl. +Inf), got %d", len(latencyBuckets)+1, count)
	}
	if prev != 5 {
		t.Fatalf("+Inf bucket = %d, want 5", prev)
	}
}

// --- Text-format checker (PR 3) ------------------------------------------
//
// The checks below parse the exposition with a small Prometheus
// text-format (0.0.4) reader instead of string matching: metric and label
// names must be legal, label values may use only the \\ \" \n escapes,
// every sample needs a preceding TYPE, histogram buckets must be cumulative
// and the +Inf bucket must equal _count.

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

func isPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// unescapePromLabel validates and unescapes a label value body (the text
// between the quotes). Only \\, \" and \n are legal escapes.
func unescapePromLabel(t *testing.T, body string) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '"' {
			t.Fatalf("unescaped quote inside label value %q", body)
		}
		if c == '\n' {
			t.Fatalf("raw newline inside label value %q", body)
		}
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			t.Fatalf("dangling backslash in label value %q", body)
		}
		switch body[i] {
		case '\\':
			sb.WriteByte('\\')
		case '"':
			sb.WriteByte('"')
		case 'n':
			sb.WriteByte('\n')
		default:
			t.Fatalf("illegal escape \\%c in label value %q", body[i], body)
		}
	}
	return sb.String()
}

// parseExposition reads the full exposition, failing the test on any
// syntax violation, and returns the samples plus the TYPE declarations.
func parseExposition(t *testing.T, out string) ([]promSample, map[string]string) {
	t.Helper()
	var samples []promSample
	types := map[string]string{}
	seen := map[string]bool{} // duplicate (name + sorted labels) detector
	for ln, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			fields := strings.SplitN(line[2:], " ", 3)
			if len(fields) < 3 || (fields[0] != "HELP" && fields[0] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if !isPromName(fields[1]) {
				t.Fatalf("line %d: illegal metric name %q", ln+1, fields[1])
			}
			if fields[0] == "TYPE" {
				switch fields[2] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: illegal TYPE %q", ln+1, fields[2])
				}
				types[fields[1]] = fields[2]
			}
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if brace := strings.IndexByte(line, '{'); brace >= 0 {
			s.name = line[:brace]
			end := strings.LastIndexByte(line, '}')
			if end < brace {
				t.Fatalf("line %d: unterminated label set %q", ln+1, line)
			}
			labels := line[brace+1 : end]
			rest = line[end+1:]
			for len(labels) > 0 {
				eq := strings.IndexByte(labels, '=')
				if eq < 0 || len(labels) < eq+2 || labels[eq+1] != '"' {
					t.Fatalf("line %d: malformed labels %q", ln+1, labels)
				}
				lname := labels[:eq]
				if !isPromName(lname) || strings.HasPrefix(lname, "__") {
					t.Fatalf("line %d: illegal label name %q", ln+1, lname)
				}
				// Scan to the closing unescaped quote.
				i := eq + 2
				for ; i < len(labels); i++ {
					if labels[i] == '\\' {
						i++
						continue
					}
					if labels[i] == '"' {
						break
					}
				}
				if i >= len(labels) {
					t.Fatalf("line %d: unterminated label value in %q", ln+1, labels)
				}
				s.labels[lname] = unescapePromLabel(t, labels[eq+2:i])
				labels = labels[i+1:]
				labels = strings.TrimPrefix(labels, ",")
			}
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no value on sample line %q", ln+1, line)
			}
			s.name = line[:sp]
			rest = line[sp:]
		}
		if !isPromName(s.name) {
			t.Fatalf("line %d: illegal metric name %q", ln+1, s.name)
		}
		rest = strings.TrimSpace(rest)
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, rest, err)
		}
		s.value = v
		// Samples must belong to a declared family (the base name for
		// histogram series).
		base := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(s.name, suffix); b != s.name && types[b] == "histogram" {
				base = b
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %q precedes its TYPE declaration", ln+1, s.name)
		}
		key := s.name + "|"
		lnames := make([]string, 0, len(s.labels))
		for k := range s.labels {
			lnames = append(lnames, k)
		}
		sort.Strings(lnames)
		for _, k := range lnames {
			key += k + "=" + s.labels[k] + ";"
		}
		if seen[key] {
			t.Fatalf("line %d: duplicate sample %q", ln+1, key)
		}
		seen[key] = true
		samples = append(samples, s)
	}
	return samples, types
}

// checkHistograms groups _bucket series by (family, non-le labels) and
// asserts cumulativeness, +Inf == _count and a present _sum.
func checkHistograms(t *testing.T, samples []promSample, types map[string]string) {
	t.Helper()
	type series struct {
		buckets map[string]float64 // le -> count
		sum     *float64
		count   *float64
	}
	groups := map[string]*series{}
	groupOf := func(family string, labels map[string]string) *series {
		key := family
		lnames := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				lnames = append(lnames, k)
			}
		}
		sort.Strings(lnames)
		for _, k := range lnames {
			key += "|" + k + "=" + labels[k]
		}
		g := groups[key]
		if g == nil {
			g = &series{buckets: map[string]float64{}}
			groups[key] = g
		}
		return g
	}
	for _, s := range samples {
		for family, typ := range types {
			if typ != "histogram" {
				continue
			}
			switch s.name {
			case family + "_bucket":
				le, ok := s.labels["le"]
				if !ok {
					t.Fatalf("bucket sample %q without le label", s.name)
				}
				groupOf(family, s.labels).buckets[le] = s.value
			case family + "_sum":
				v := s.value
				groupOf(family, s.labels).sum = &v
			case family + "_count":
				v := s.value
				groupOf(family, s.labels).count = &v
			}
		}
	}
	if len(groups) == 0 {
		t.Fatal("no histogram series found")
	}
	for key, g := range groups {
		inf, ok := g.buckets["+Inf"]
		if !ok {
			t.Fatalf("%s: histogram lacks the +Inf bucket", key)
		}
		if g.count == nil || *g.count != inf {
			t.Fatalf("%s: +Inf bucket %g must equal _count %v", key, inf, g.count)
		}
		if g.sum == nil {
			t.Fatalf("%s: histogram lacks _sum", key)
		}
		// Cumulative in ascending bound order.
		bounds := make([]float64, 0, len(g.buckets))
		for le := range g.buckets {
			if le == "+Inf" {
				continue
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: unparseable le %q", key, le)
			}
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		prev := 0.0
		for _, b := range bounds {
			le := strconv.FormatFloat(b, 'f', -1, 64)
			v := g.buckets[le]
			if v < prev {
				t.Fatalf("%s: bucket le=%g count %g below previous %g (not cumulative)", key, b, v, prev)
			}
			prev = v
		}
		if prev > inf {
			t.Fatalf("%s: finite buckets (%g) exceed +Inf (%g)", key, prev, inf)
		}
	}
}

// TestMetricsExpositionParses runs the checker over a populated registry,
// including label values that need every legal escape.
func TestMetricsExpositionParses(t *testing.T) {
	m := NewMetrics()
	m.Observe("POST /v1/sanitize", 200, 0.003)
	m.Observe("POST /v1/sanitize", 200, 0.11)
	m.Observe("POST /v1/sanitize", 503, 3.4)
	m.Observe(`weird"handler\with`+"\nnewline", 200, 0.02)
	m.Observe("GET /healthz", 200, 0.00004)
	for _, n := range []int{1, 3, 9, 500} {
		m.ObserveSolveComponents(n)
	}
	m.ObserveStage("solve", 0.021)
	m.ObserveStage("lp.solve", 0.00007)
	m.ObserveStage("queue.wait", 0.000002)
	m.ObserveSolver(17, dpslog.SolveStats{
		LPSolves: 2, Refactorizations: 3,
		PresolveRows: 5, PresolveCols: 4,
		WarmHits: 1, WarmMisses: 1,
	})

	out := scrape(t, m, Gauges{
		Workers: 8, WorkersBusy: 2, QueueDepth: 1,
		Jobs:         map[JobState]int{JobQueued: 1, JobDone: 4},
		CacheEntries: 3, CacheHits: 10, CacheMisses: 2,
	})
	samples, types := parseExposition(t, out)
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}
	checkHistograms(t, samples, types)

	// The escaped handler label round-trips through the parser.
	found := false
	for _, s := range samples {
		if s.labels["handler"] == `weird"handler\with`+"\nnewline" {
			found = true
		}
	}
	if !found {
		t.Error("escaped handler label did not round-trip")
	}

	// Counters and gauges carry the right TYPE.
	for name, want := range map[string]string{
		"slserve_requests_total":                "counter",
		"slserve_request_duration_seconds":      "histogram",
		"slserve_solve_components":              "histogram",
		"slserve_stage_duration_seconds":        "histogram",
		"slserve_solver_lp_solves_total":        "counter",
		"slserve_solver_iterations_total":       "counter",
		"slserve_solver_refactorizations_total": "counter",
		"slserve_build_info":                    "gauge",
		"slserve_goroutines":                    "gauge",
		"slserve_heap_alloc_bytes":              "gauge",
		"slserve_workers":                       "gauge",
		"slserve_jobs":                          "gauge",
	} {
		if types[name] != want {
			t.Errorf("TYPE of %s = %q, want %q", name, types[name], want)
		}
	}
}
