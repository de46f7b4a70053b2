package server

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"

	"dpslog"
)

// Metrics accumulates the server's request counters and latency histograms
// and renders them in the Prometheus text exposition format (version
// 0.0.4). It is hand-rolled — the repository's zero-dependency invariant
// rules out the client library — but the output scrapes cleanly with a
// stock Prometheus.
type Metrics struct {
	mu         sync.Mutex
	requests   map[reqKey]int64
	latency    map[string]*histogram
	components *histogram
	stages     map[string]*histogram
	solver     solverMetrics
	ingest     ingestMetrics
	// mechanisms counts completed sanitizations (cached and solved alike)
	// by release mechanism wire name.
	mechanisms map[string]int64
}

// solverMetrics accumulates the LP-engine depth counters surfaced by
// dpslog.SolveStats: how hard the simplex worked, not just how long the
// request took.
type solverMetrics struct {
	lpSolves         int64
	iterations       int64
	refactorizations int64
	presolveRows     int64
	presolveCols     int64
}

// ingestMetrics accumulates the streaming corpus-upload counters plus a
// snapshot of the most recent completed ingest (rate, skew, peak heap) —
// the operational signals of the sharded fold.
type ingestMetrics struct {
	uploads  int64
	failures int64
	rows     int64
	// last completed ingest:
	lastRowsPerSec float64
	lastSkew       float64
	lastPeakHeap   uint64
}

type reqKey struct {
	handler string
	code    string
}

// latencyBuckets are the histogram upper bounds in seconds, spanning
// cache-hit microseconds to multi-second D-UMP solves.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// componentBuckets are the upper bounds for the per-solve connected
// component counts: 1 is the single-market giant-component case, powers of
// two cover sharded multi-market corpora.
var componentBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// stageBuckets extend the latency bounds two decades downward: interior
// stages (cache lookups, ledger fsyncs, noise sampling) live in the
// microseconds while solves reach seconds.
var stageBuckets = []float64{0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10}

type histogram struct {
	counts []int64 // one per bucket; +Inf is implicit via count
	sum    float64
	count  int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:   make(map[reqKey]int64),
		latency:    make(map[string]*histogram),
		components: &histogram{counts: make([]int64, len(componentBuckets))},
		stages:     make(map[string]*histogram),
		mechanisms: make(map[string]int64),
	}
}

// ObserveStage records the duration of one completed trace span under its
// stage label (the span name). The tracer's onEnd hook calls this for every
// interior span, so the stage histograms populate whether or not anyone
// ever asks for a trace.
func (m *Metrics) ObserveStage(stage string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.stages[stage]
	if h == nil {
		h = &histogram{counts: make([]int64, len(stageBuckets))}
		m.stages[stage] = h
	}
	for i, ub := range stageBuckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.count++
}

// ObserveSolver folds the solver-depth counters of one completed
// (non-cached) sanitization into the registry. iterations is the plan's
// simplex-iteration/BIP-node total; st carries the LP engine internals.
func (m *Metrics) ObserveSolver(iterations int, st dpslog.SolveStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solver.lpSolves += int64(st.LPSolves)
	m.solver.iterations += int64(iterations)
	m.solver.refactorizations += int64(st.Refactorizations)
	m.solver.presolveRows += int64(st.PresolveRows)
	m.solver.presolveCols += int64(st.PresolveCols)
}

// ObserveSanitizeMechanism records one completed sanitization under its
// release mechanism's wire name, whether it was solved or cache-served.
func (m *Metrics) ObserveSanitizeMechanism(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mechanisms[name]++
}

// ObserveSolveComponents records the connected-component count of one
// completed (non-cached) sanitization solve.
func (m *Metrics) ObserveSolveComponents(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := float64(n)
	for i, ub := range componentBuckets {
		if v <= ub {
			m.components.counts[i]++
		}
	}
	m.components.sum += v
	m.components.count++
}

// ObserveIngest records one completed streaming corpus upload: the rows
// folded, the fold throughput, the shard skew ratio and the peak live-heap
// estimate sampled during the run.
func (m *Metrics) ObserveIngest(rows int64, rowsPerSec, skew float64, peakHeap uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.uploads++
	m.ingest.rows += rows
	m.ingest.lastRowsPerSec = rowsPerSec
	m.ingest.lastSkew = skew
	m.ingest.lastPeakHeap = peakHeap
}

// ObserveIngestFailure records a corpus upload that was admitted but failed
// (parse error, disk error) — shed uploads (the 503 path) are visible in
// the request counters instead.
func (m *Metrics) ObserveIngestFailure() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.failures++
}

// Observe records one completed request for the given handler label (the
// route pattern) with its HTTP status code and duration.
func (m *Metrics) Observe(handler string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{handler, strconv.Itoa(code)}]++
	h := m.latency[handler]
	if h == nil {
		h = &histogram{counts: make([]int64, len(latencyBuckets))}
		m.latency[handler] = h
	}
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.count++
}

// Gauges are point-in-time values the server supplies at scrape time.
type Gauges struct {
	Workers, WorkersBusy, QueueDepth int
	Jobs                             map[JobState]int
	CacheEntries                     int
	CacheHits, CacheMisses           int64
	// CompCacheEntries/Hits/Misses mirror the shared component-plan cache
	// behind incremental post-append re-solves.
	CompCacheEntries               int
	CompCacheHits, CompCacheMisses int
	// IngestInFlightBytes/IngestInFlightUploads/IngestCapacityBytes mirror
	// the upload admission gate at scrape time.
	IngestInFlightBytes   int64
	IngestInFlightUploads int
	IngestCapacityBytes   int64
	// Ledger is non-nil when the corpus subsystem is enabled.
	Ledger *LedgerGauges
}

// LedgerGauges expose the privacy budget accounting: the configured
// per-corpus allowance and, per stored corpus, the cumulative (ε, δ) spend
// and release count.
type LedgerGauges struct {
	Corpora                    int
	BudgetEpsilon, BudgetDelta float64
	PerCorpus                  []CorpusSpend
}

// CorpusSpend is one corpus's ledger line.
type CorpusSpend struct {
	Name                     string
	SpentEpsilon, SpentDelta float64
	Releases                 int
}

// WriteTo renders the full exposition: counters, histograms, and the
// scrape-time gauges. Output ordering is deterministic.
func (m *Metrics) WriteTo(w io.Writer, g Gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP slserve_requests_total Completed HTTP requests by handler and status code.")
	fmt.Fprintln(w, "# TYPE slserve_requests_total counter")
	reqKeys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(a, b int) bool {
		if reqKeys[a].handler != reqKeys[b].handler {
			return reqKeys[a].handler < reqKeys[b].handler
		}
		return reqKeys[a].code < reqKeys[b].code
	})
	for _, k := range reqKeys {
		fmt.Fprintf(w, "slserve_requests_total{handler=%q,code=%q} %d\n", k.handler, k.code, m.requests[k])
	}

	fmt.Fprintln(w, "# HELP slserve_request_duration_seconds Request latency by handler.")
	fmt.Fprintln(w, "# TYPE slserve_request_duration_seconds histogram")
	handlers := make([]string, 0, len(m.latency))
	for h := range m.latency {
		handlers = append(handlers, h)
	}
	sort.Strings(handlers)
	for _, name := range handlers {
		h := m.latency[name]
		for i, ub := range latencyBuckets {
			fmt.Fprintf(w, "slserve_request_duration_seconds_bucket{handler=%q,le=%q} %d\n",
				name, formatBound(ub), h.counts[i])
		}
		fmt.Fprintf(w, "slserve_request_duration_seconds_bucket{handler=%q,le=\"+Inf\"} %d\n", name, h.count)
		fmt.Fprintf(w, "slserve_request_duration_seconds_sum{handler=%q} %g\n", name, h.sum)
		fmt.Fprintf(w, "slserve_request_duration_seconds_count{handler=%q} %d\n", name, h.count)
	}

	fmt.Fprintln(w, "# HELP slserve_solve_components Connected components per sanitization solve (see internal/partition).")
	fmt.Fprintln(w, "# TYPE slserve_solve_components histogram")
	for i, ub := range componentBuckets {
		fmt.Fprintf(w, "slserve_solve_components_bucket{le=%q} %d\n", formatBound(ub), m.components.counts[i])
	}
	fmt.Fprintf(w, "slserve_solve_components_bucket{le=\"+Inf\"} %d\n", m.components.count)
	fmt.Fprintf(w, "slserve_solve_components_sum %g\n", m.components.sum)
	fmt.Fprintf(w, "slserve_solve_components_count %d\n", m.components.count)

	fmt.Fprintln(w, "# HELP slserve_stage_duration_seconds Duration of one pipeline stage (trace span), labeled by span name.")
	fmt.Fprintln(w, "# TYPE slserve_stage_duration_seconds histogram")
	stages := make([]string, 0, len(m.stages))
	for st := range m.stages {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, name := range stages {
		h := m.stages[name]
		for i, ub := range stageBuckets {
			fmt.Fprintf(w, "slserve_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n",
				name, formatBound(ub), h.counts[i])
		}
		fmt.Fprintf(w, "slserve_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", name, h.count)
		fmt.Fprintf(w, "slserve_stage_duration_seconds_sum{stage=%q} %g\n", name, h.sum)
		fmt.Fprintf(w, "slserve_stage_duration_seconds_count{stage=%q} %d\n", name, h.count)
	}

	fmt.Fprintln(w, "# HELP slserve_solver_lp_solves_total LP solves executed (one per component per phase).")
	fmt.Fprintln(w, "# TYPE slserve_solver_lp_solves_total counter")
	fmt.Fprintf(w, "slserve_solver_lp_solves_total %d\n", m.solver.lpSolves)
	fmt.Fprintln(w, "# HELP slserve_solver_iterations_total Simplex iterations plus BIP nodes, summed over solves.")
	fmt.Fprintln(w, "# TYPE slserve_solver_iterations_total counter")
	fmt.Fprintf(w, "slserve_solver_iterations_total %d\n", m.solver.iterations)
	fmt.Fprintln(w, "# HELP slserve_solver_refactorizations_total Basis (re)factorizations across LP solves.")
	fmt.Fprintln(w, "# TYPE slserve_solver_refactorizations_total counter")
	fmt.Fprintf(w, "slserve_solver_refactorizations_total %d\n", m.solver.refactorizations)
	fmt.Fprintln(w, "# HELP slserve_solver_presolve_rows_total Constraint rows eliminated by LP presolve.")
	fmt.Fprintln(w, "# TYPE slserve_solver_presolve_rows_total counter")
	fmt.Fprintf(w, "slserve_solver_presolve_rows_total %d\n", m.solver.presolveRows)
	fmt.Fprintln(w, "# HELP slserve_solver_presolve_cols_total Variables fixed by LP presolve.")
	fmt.Fprintln(w, "# TYPE slserve_solver_presolve_cols_total counter")
	fmt.Fprintf(w, "slserve_solver_presolve_cols_total %d\n", m.solver.presolveCols)

	fmt.Fprintln(w, "# HELP slserve_sanitize_mechanism_total Completed sanitizations by release mechanism (cached and solved alike).")
	fmt.Fprintln(w, "# TYPE slserve_sanitize_mechanism_total counter")
	mechNames := make([]string, 0, len(m.mechanisms))
	for name := range m.mechanisms {
		mechNames = append(mechNames, name)
	}
	sort.Strings(mechNames)
	for _, name := range mechNames {
		fmt.Fprintf(w, "slserve_sanitize_mechanism_total{mechanism=%q} %d\n", name, m.mechanisms[name])
	}

	fmt.Fprintln(w, "# HELP slserve_build_info Build metadata; the value is always 1.")
	fmt.Fprintln(w, "# TYPE slserve_build_info gauge")
	fmt.Fprintf(w, "slserve_build_info{version=%q,goversion=%q} 1\n", buildVersion, runtime.Version())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintln(w, "# HELP slserve_goroutines Live goroutines at scrape time.")
	fmt.Fprintln(w, "# TYPE slserve_goroutines gauge")
	fmt.Fprintf(w, "slserve_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintln(w, "# HELP slserve_heap_alloc_bytes Live heap bytes at scrape time.")
	fmt.Fprintln(w, "# TYPE slserve_heap_alloc_bytes gauge")
	fmt.Fprintf(w, "slserve_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintln(w, "# HELP slserve_gc_runs_total Completed garbage-collection cycles.")
	fmt.Fprintln(w, "# TYPE slserve_gc_runs_total counter")
	fmt.Fprintf(w, "slserve_gc_runs_total %d\n", ms.NumGC)
	fmt.Fprintln(w, "# HELP slserve_gc_pause_seconds_total Cumulative stop-the-world GC pause.")
	fmt.Fprintln(w, "# TYPE slserve_gc_pause_seconds_total counter")
	fmt.Fprintf(w, "slserve_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)

	fmt.Fprintln(w, "# HELP slserve_workers Configured worker pool size.")
	fmt.Fprintln(w, "# TYPE slserve_workers gauge")
	fmt.Fprintf(w, "slserve_workers %d\n", g.Workers)
	fmt.Fprintln(w, "# HELP slserve_workers_busy Workers currently executing a solve.")
	fmt.Fprintln(w, "# TYPE slserve_workers_busy gauge")
	fmt.Fprintf(w, "slserve_workers_busy %d\n", g.WorkersBusy)
	fmt.Fprintln(w, "# HELP slserve_queue_depth Tasks waiting in the worker pool backlog.")
	fmt.Fprintln(w, "# TYPE slserve_queue_depth gauge")
	fmt.Fprintf(w, "slserve_queue_depth %d\n", g.QueueDepth)

	fmt.Fprintln(w, "# HELP slserve_jobs Retained async jobs by state.")
	fmt.Fprintln(w, "# TYPE slserve_jobs gauge")
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed} {
		fmt.Fprintf(w, "slserve_jobs{state=%q} %d\n", string(st), g.Jobs[st])
	}

	fmt.Fprintln(w, "# HELP slserve_plan_cache_entries Entries in the LRU plan cache.")
	fmt.Fprintln(w, "# TYPE slserve_plan_cache_entries gauge")
	fmt.Fprintf(w, "slserve_plan_cache_entries %d\n", g.CacheEntries)
	fmt.Fprintln(w, "# HELP slserve_plan_cache_hits_total Plan cache hits.")
	fmt.Fprintln(w, "# TYPE slserve_plan_cache_hits_total counter")
	fmt.Fprintf(w, "slserve_plan_cache_hits_total %d\n", g.CacheHits)
	fmt.Fprintln(w, "# HELP slserve_plan_cache_misses_total Plan cache misses.")
	fmt.Fprintln(w, "# TYPE slserve_plan_cache_misses_total counter")
	fmt.Fprintf(w, "slserve_plan_cache_misses_total %d\n", g.CacheMisses)

	fmt.Fprintln(w, "# HELP slserve_component_cache_entries Entries in the shared component-plan cache.")
	fmt.Fprintln(w, "# TYPE slserve_component_cache_entries gauge")
	fmt.Fprintf(w, "slserve_component_cache_entries %d\n", g.CompCacheEntries)
	fmt.Fprintln(w, "# HELP slserve_component_cache_hits_total Component plans reused from the cache.")
	fmt.Fprintln(w, "# TYPE slserve_component_cache_hits_total counter")
	fmt.Fprintf(w, "slserve_component_cache_hits_total %d\n", g.CompCacheHits)
	fmt.Fprintln(w, "# HELP slserve_component_cache_misses_total Component solves not served from the cache.")
	fmt.Fprintln(w, "# TYPE slserve_component_cache_misses_total counter")
	fmt.Fprintf(w, "slserve_component_cache_misses_total %d\n", g.CompCacheMisses)

	fmt.Fprintln(w, "# HELP slserve_ingest_uploads_total Completed streaming corpus uploads.")
	fmt.Fprintln(w, "# TYPE slserve_ingest_uploads_total counter")
	fmt.Fprintf(w, "slserve_ingest_uploads_total %d\n", m.ingest.uploads)
	fmt.Fprintln(w, "# HELP slserve_ingest_failures_total Admitted corpus uploads that failed to ingest.")
	fmt.Fprintln(w, "# TYPE slserve_ingest_failures_total counter")
	fmt.Fprintf(w, "slserve_ingest_failures_total %d\n", m.ingest.failures)
	fmt.Fprintln(w, "# HELP slserve_ingest_rows_total Rows folded by the streaming sharded ingest.")
	fmt.Fprintln(w, "# TYPE slserve_ingest_rows_total counter")
	fmt.Fprintf(w, "slserve_ingest_rows_total %d\n", m.ingest.rows)
	fmt.Fprintln(w, "# HELP slserve_ingest_last_rows_per_sec Fold throughput of the most recent completed ingest.")
	fmt.Fprintln(w, "# TYPE slserve_ingest_last_rows_per_sec gauge")
	fmt.Fprintf(w, "slserve_ingest_last_rows_per_sec %g\n", m.ingest.lastRowsPerSec)
	fmt.Fprintln(w, "# HELP slserve_ingest_last_shard_skew Max-shard/mean-shard row ratio of the most recent completed ingest (1 = balanced).")
	fmt.Fprintln(w, "# TYPE slserve_ingest_last_shard_skew gauge")
	fmt.Fprintf(w, "slserve_ingest_last_shard_skew %g\n", m.ingest.lastSkew)
	fmt.Fprintln(w, "# HELP slserve_ingest_last_peak_heap_bytes Peak live-heap estimate sampled during the most recent completed ingest.")
	fmt.Fprintln(w, "# TYPE slserve_ingest_last_peak_heap_bytes gauge")
	fmt.Fprintf(w, "slserve_ingest_last_peak_heap_bytes %d\n", m.ingest.lastPeakHeap)
	fmt.Fprintln(w, "# HELP slserve_ingest_inflight_bytes Declared bytes of corpus uploads currently ingesting.")
	fmt.Fprintln(w, "# TYPE slserve_ingest_inflight_bytes gauge")
	fmt.Fprintf(w, "slserve_ingest_inflight_bytes %d\n", g.IngestInFlightBytes)
	fmt.Fprintln(w, "# HELP slserve_ingest_inflight_uploads Corpus uploads currently ingesting.")
	fmt.Fprintln(w, "# TYPE slserve_ingest_inflight_uploads gauge")
	fmt.Fprintf(w, "slserve_ingest_inflight_uploads %d\n", g.IngestInFlightUploads)
	fmt.Fprintln(w, "# HELP slserve_ingest_capacity_bytes Admission-gate capacity for concurrent corpus uploads (0 = unguarded).")
	fmt.Fprintln(w, "# TYPE slserve_ingest_capacity_bytes gauge")
	fmt.Fprintf(w, "slserve_ingest_capacity_bytes %d\n", g.IngestCapacityBytes)

	if g.Ledger == nil {
		return
	}
	fmt.Fprintln(w, "# HELP slserve_corpora Corpora in the disk-backed store.")
	fmt.Fprintln(w, "# TYPE slserve_corpora gauge")
	fmt.Fprintf(w, "slserve_corpora %d\n", g.Ledger.Corpora)
	fmt.Fprintln(w, "# HELP slserve_ledger_budget_epsilon Configured per-corpus epsilon allowance.")
	fmt.Fprintln(w, "# TYPE slserve_ledger_budget_epsilon gauge")
	fmt.Fprintf(w, "slserve_ledger_budget_epsilon %g\n", g.Ledger.BudgetEpsilon)
	fmt.Fprintln(w, "# HELP slserve_ledger_budget_delta Configured per-corpus delta allowance.")
	fmt.Fprintln(w, "# TYPE slserve_ledger_budget_delta gauge")
	fmt.Fprintf(w, "slserve_ledger_budget_delta %g\n", g.Ledger.BudgetDelta)
	fmt.Fprintln(w, "# HELP slserve_ledger_spent_epsilon Cumulative epsilon charged per corpus under sequential composition.")
	fmt.Fprintln(w, "# TYPE slserve_ledger_spent_epsilon gauge")
	for _, c := range g.Ledger.PerCorpus {
		fmt.Fprintf(w, "slserve_ledger_spent_epsilon{corpus=%q} %g\n", c.Name, c.SpentEpsilon)
	}
	fmt.Fprintln(w, "# HELP slserve_ledger_spent_delta Cumulative delta charged per corpus under sequential composition.")
	fmt.Fprintln(w, "# TYPE slserve_ledger_spent_delta gauge")
	for _, c := range g.Ledger.PerCorpus {
		fmt.Fprintf(w, "slserve_ledger_spent_delta{corpus=%q} %g\n", c.Name, c.SpentDelta)
	}
	fmt.Fprintln(w, "# HELP slserve_ledger_releases_total Journaled releases per corpus.")
	fmt.Fprintln(w, "# TYPE slserve_ledger_releases_total counter")
	for _, c := range g.Ledger.PerCorpus {
		fmt.Fprintf(w, "slserve_ledger_releases_total{corpus=%q} %d\n", c.Name, c.Releases)
	}
}

// formatBound renders a bucket bound the way Prometheus expects ("0.005",
// not "5e-3").
func formatBound(ub float64) string {
	return strconv.FormatFloat(ub, 'f', -1, 64)
}

// buildVersion is the module version stamped into the binary, resolved once
// at startup ("(devel)" for a plain `go build`, "unknown" without build
// info — e.g. some test binaries).
var buildVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}()
