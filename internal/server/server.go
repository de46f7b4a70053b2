// Package server implements slserve, the HTTP sanitization service: a
// JSON/TSV API over the dpslog library with a bounded worker pool (so
// concurrent LP/BIP solves cannot stampede), an async job store for large
// logs, an LRU plan cache keyed by (corpus digest, canonical options), and
// hand-rolled Prometheus metrics — all within the repository's
// zero-dependency invariant.
//
// Endpoints:
//
//	POST /v1/sanitize     synchronous sanitization (JSON or TSV body)
//	POST /v1/jobs         submit an async sanitization job
//	GET  /v1/jobs         list retained jobs
//	GET  /v1/jobs/{id}    poll one job
//	POST /v1/lambda       max DP output size λ for (ε, δ) — cheap planning
//	POST /v1/stats        Table-3 characteristics of a posted log
//	GET  /healthz         liveness
//	GET  /metrics         Prometheus text exposition
//
// With a data directory configured (Config.DataDir), the stateful corpus
// subsystem adds upload-once/sanitize-many endpoints whose releases are
// accounted against a per-corpus (ε, δ) budget (internal/corpus,
// internal/ledger):
//
//	PUT    /v1/corpora/{name}           upload (or replace) a named corpus;
//	                                    resets the version chain to one base
//	GET    /v1/corpora                  list stored corpora
//	GET    /v1/corpora/{name}           corpus metadata + budget + versions[]
//	DELETE /v1/corpora/{name}           delete a corpus (its ledger survives)
//	POST   /v1/corpora/{name}/append    fold new rows into a new immutable
//	                                    corpus version (continual release);
//	                                    same body shapes as PUT
//	GET    /v1/corpora/{name}/versions  the version chain, base first
//	GET    /v1/corpora/{name}/versions/{digest}
//	                                    one chain entry + that digest's budget
//	POST   /v1/corpora/{name}/sanitize  sanitize by reference: options-only
//	                                    body, budget-charged, 429 when the
//	                                    remaining (ε, δ) cannot cover it;
//	                                    ?version= selects an ancestor version
//	GET    /v1/corpora/{name}/budget    budget, spend, remaining (?version=)
//	GET    /v1/corpora/{name}/releases  the release journal (?version=)
//
// A JSON body carries {"options": {...}, "records": [...]} or {"options":
// {...}, "tsv": "..."}; any other content type is read as a raw canonical
// TSV log with the options taken from query parameters (mechanism, eexp or
// epsilon, delta, objective, support, size, solver, seed, parallelism, d).
// When the request omits a
// seed, the server derives one deterministically from the corpus digest, so
// identical requests produce identical outputs (and cache cleanly).
//
// Raw corpus bodies (PUT and append) negotiate their format on the request
// Content-Type:
//
//	text/tab-separated-values  canonical 4-column TSV (the default: also
//	                           text/plain, application/octet-stream, or
//	                           no Content-Type at all)
//	application/x-aol-log      the historical AOL 5-column form
//	application/json           the {"records": [...]}/{"tsv": "..."} envelope
//
// The legacy ?format=aol query parameter is honored for one more release
// and answered with a "Deprecation: true" response header.
//
// Every non-2xx response across every endpoint carries the uniform error
// envelope {"error", "code", "status", "detail"?} (see errors.go);
// Config.LegacyErrors trims it back to the historical {"error"} shape.
//
// Each corpus version is immutable with its own digest; the ledger charges
// releases per digest under sequential composition, so appending never
// resets or launders the spend of prior versions, and releases journaled
// against old versions replay for free forever. A server-wide component-plan
// cache (Config.CompCacheSize) makes the re-solve after an append
// incremental: only connected components the appended rows touched
// re-solve, the rest are reused byte-identically.
//
// Both sanitize endpoints dispatch on ?mechanism= (or the JSON "mechanism"
// option) through internal/mechanism's registry: "ump" (default), "laplace",
// "zealous" and "localdp". The aggregate mechanisms release noisy pair
// counts ("pairs") instead of user-attributed records, and each release is
// charged at the mechanism's own declared (ε, δ) cost.
package server

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dpslog"
	"dpslog/internal/corpus"
	"dpslog/internal/ledger"
	"dpslog/internal/mechanism"
	"dpslog/internal/obs"
	"dpslog/internal/ump"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrent solves (default GOMAXPROCS).
	Workers int
	// Queue is the worker-pool backlog (default 4×Workers). A full backlog
	// returns 503.
	Queue int
	// CacheSize is the LRU plan cache capacity in entries (default 128;
	// negative disables caching).
	CacheSize int
	// MaxJobs bounds the retained async jobs (default 1024); the oldest
	// finished jobs are evicted first.
	MaxJobs int
	// WarmPools bounds the per-problem simplex warm-start caches retained
	// for plan-cache-miss re-solves (default 32; negative disables warm
	// starts entirely).
	WarmPools int
	// MaxBodyBytes caps request bodies (default 32 MiB). Corpus uploads
	// (PUT /v1/corpora/{name}) are exempt — they stream through the
	// sharded ingest under MaxCorpusBytes and the MaxIngestBytes gate
	// instead of being slurped.
	MaxBodyBytes int64
	// MaxCorpusBytes caps one corpus upload body (default 8 GiB; negative
	// disables the cap). It bounds disk, not memory — the body streams.
	MaxCorpusBytes int64
	// MaxIngestBytes is the admission gate for concurrent corpus uploads:
	// the sum of declared (Content-Length) body sizes ingesting at once
	// (default 256 MiB; negative disables the gate). Uploads over the gate
	// are shed with 503, never queued. A chunked upload without a declared
	// length reserves MaxIngestBytes/4.
	MaxIngestBytes int64
	// IngestShards is the fold parallelism of one streaming upload
	// (default GOMAXPROCS). The ingested log is invariant in it.
	IngestShards int
	// IngestChunkBytes is the streaming reader's chunk size (default
	// 256 KiB).
	IngestChunkBytes int
	// SolveParallelism is the per-solve component parallelism applied to
	// requests that leave options.parallelism at zero (default 1: with
	// Workers concurrent solves already saturating the cores, sequential
	// component solves avoid oversubscription; raise it for big sharded
	// corpora with few concurrent clients). Requests override it with any
	// explicit positive parallelism — note zero is indistinguishable from
	// "unset" on the wire, so a request cannot select the library's
	// GOMAXPROCS default; it can send a large explicit value instead (the
	// solver clamps to the component count). Negative configures the
	// library default (GOMAXPROCS per solve).
	SolveParallelism int
	// DataDir enables the stateful corpus subsystem: corpora are stored
	// under DataDir/corpora and the privacy ledger journal at
	// DataDir/ledger.journal. Empty disables the /v1/corpora endpoints
	// (they answer 503 with a configuration hint).
	DataDir string
	// Budget is the per-corpus (ε, δ) allowance enforced under sequential
	// composition across releases. Zero fields default to ε = ln 16 and
	// δ = 1 — four (e^ε = 2, δ = 0.25) releases — a demo-sized allowance;
	// production deployments should set it deliberately.
	Budget dpslog.Budget
	// Mechanisms restricts the release mechanisms this server will run
	// (wire names: "ump", "laplace", "zealous", "localdp"). Empty allows
	// every registered mechanism. A request naming a mechanism outside the
	// allowlist gets a structured 400 — the option is a deployment policy,
	// not a privacy control: disabled mechanisms charge nothing because they
	// never run.
	Mechanisms []string
	// CompCacheSize bounds the shared component-plan cache that makes
	// re-solves after corpus appends incremental: solved per-component plans
	// are keyed by component content digest, so sanitizing a new corpus
	// version re-solves only the connected components the appended rows
	// actually changed (default 4096 entries; negative disables).
	CompCacheSize int
	// LegacyErrors reverts non-2xx bodies to the pre-envelope {"error": ...}
	// shape (no code/status/detail fields) for one release while clients
	// migrate to the structured envelope.
	LegacyErrors bool
	// TraceBuffer is the ring capacity of retained request traces served by
	// GET /v1/debug/traces (default 128).
	TraceBuffer int
	// Logger, when non-nil, receives one structured record per traced
	// request (method, path, status, duration, trace ID). Scrape-path
	// requests (/healthz, /readyz, /metrics, /v1/debug/traces) are neither
	// traced nor logged.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Queue == 0 {
		c.Queue = 4 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 1024
	}
	if c.WarmPools == 0 {
		c.WarmPools = 32
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxCorpusBytes == 0 {
		c.MaxCorpusBytes = 8 << 30
	}
	if c.MaxIngestBytes == 0 {
		c.MaxIngestBytes = 256 << 20
	}
	if c.CompCacheSize == 0 {
		c.CompCacheSize = 4096
	}
	if c.SolveParallelism == 0 {
		c.SolveParallelism = 1
	}
	if c.SolveParallelism < 0 {
		c.SolveParallelism = 0 // library default: GOMAXPROCS
	}
	if c.DataDir != "" {
		if c.Budget.Epsilon == 0 {
			c.Budget.Epsilon = math.Log(16)
		}
		if c.Budget.Delta == 0 {
			c.Budget.Delta = 1
		}
	}
	return c
}

// Server is the slserve HTTP handler. Create with New, dispose with Close.
type Server struct {
	cfg   Config
	pool  *Pool
	jobs  *jobStore
	cache *planCache
	warm  *warmPools
	// comp is the shared component-plan cache behind incremental re-solves;
	// nil when disabled. Safe to share across corpora and versions — the
	// component content digest is the reuse identity.
	comp    *dpslog.CompCache
	metrics *Metrics
	tracer  *obs.Tracer
	logger  *slog.Logger
	mux     *http.ServeMux
	started time.Time
	// ready closes once the stateful subsystems have opened (immediately in
	// stateless mode). corpora, budgets and openErr must only be read after
	// <-ready; corpora and budgets are non-nil exactly when cfg.DataDir is
	// set and the open succeeded.
	ready   chan struct{}
	openErr error
	corpora *corpus.Store
	budgets *ledger.Ledger
	// gate admission-controls streaming corpus uploads by declared bytes.
	gate *ingestGate
}

// New builds a Server with its worker pool running. With Config.DataDir
// set, the corpus store open and ledger journal replay run asynchronously:
// the server accepts traffic immediately, corpus handlers block until the
// state is ready, and GET /readyz reports the gate — so load balancers see
// liveness at once and readiness only after budget accounting has resumed
// exactly where the last process left off.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg.Workers, cfg.Queue),
		jobs:    newJobStore(cfg.MaxJobs),
		cache:   newPlanCache(cfg.CacheSize),
		warm:    newWarmPools(cfg.WarmPools),
		metrics: NewMetrics(),
		logger:  cfg.Logger,
		mux:     http.NewServeMux(),
		started: time.Now(),
		ready:   make(chan struct{}),
		gate:    newIngestGate(cfg.MaxIngestBytes),
	}
	if cfg.CompCacheSize > 0 {
		s.comp = dpslog.NewCompCache(cfg.CompCacheSize)
	}
	// Every ended span feeds the stage histograms; root spans are already
	// covered by the request-duration histograms, so only interior stages
	// are recorded.
	s.tracer = obs.NewTracer(cfg.TraceBuffer, func(sp *obs.Span) {
		if !sp.Root() {
			s.metrics.ObserveStage(sp.Name, sp.Duration().Seconds())
		}
	})
	if cfg.DataDir == "" {
		close(s.ready)
	} else {
		go s.openState()
	}
	s.handleUntraced("GET /healthz", s.handleHealthz)
	s.handleUntraced("GET /readyz", s.handleReadyz)
	s.handleUntraced("GET /metrics", s.handleMetrics)
	s.handleUntraced("GET /v1/debug/traces", s.handleDebugTraces)
	s.handle("POST /v1/sanitize", s.handleSanitize)
	s.handle("POST /v1/jobs", s.handleJobSubmit)
	s.handle("GET /v1/jobs", s.handleJobList)
	s.handle("GET /v1/jobs/{id}", s.handleJobGet)
	s.handle("POST /v1/lambda", s.handleLambda)
	s.handle("POST /v1/stats", s.handleStats)
	s.handle("PUT /v1/corpora/{name}", s.corpusEnabled(s.handleCorpusPut))
	s.handle("GET /v1/corpora", s.corpusEnabled(s.handleCorpusList))
	s.handle("GET /v1/corpora/{name}", s.corpusEnabled(s.handleCorpusGet))
	s.handle("DELETE /v1/corpora/{name}", s.corpusEnabled(s.handleCorpusDelete))
	s.handle("POST /v1/corpora/{name}/append", s.corpusEnabled(s.handleCorpusAppend))
	s.handle("GET /v1/corpora/{name}/versions", s.corpusEnabled(s.handleCorpusVersionList))
	s.handle("GET /v1/corpora/{name}/versions/{digest}", s.corpusEnabled(s.handleCorpusVersionGet))
	s.handle("POST /v1/corpora/{name}/sanitize", s.corpusEnabled(s.handleCorpusSanitize))
	s.handle("GET /v1/corpora/{name}/budget", s.corpusEnabled(s.handleCorpusBudget))
	s.handle("GET /v1/corpora/{name}/releases", s.corpusEnabled(s.handleCorpusReleases))
	s.handle("/", s.handleNotFound)
	return s, nil
}

// openState opens the corpus store and replays the ledger journal, then
// closes ready. The channel close publishes the field writes (happens-
// before), so readers that wait on ready never race.
func (s *Server) openState() {
	defer close(s.ready)
	corpora, err := corpus.Open(filepath.Join(s.cfg.DataDir, "corpora"))
	if err != nil {
		s.openErr = err
		return
	}
	budgets, err := ledger.Open(filepath.Join(s.cfg.DataDir, "ledger.journal"), s.cfg.Budget)
	if err != nil {
		s.openErr = err
		return
	}
	s.corpora, s.budgets = corpora, budgets
}

// Close stops the worker pool — in-flight solves finish, queued tasks are
// drained and failed with ErrClosed (async jobs transition to "failed") —
// and releases the ledger journal (waiting out the async open first).
func (s *Server) Close() {
	s.pool.Close()
	<-s.ready
	if s.budgets != nil {
		s.budgets.Close()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		// Corpus uploads stream through the sharded ingest and get the
		// (much larger) corpus cap; everything else is slurped and keeps
		// the tight general cap.
		if limit := s.bodyCap(r); limit > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
	}
	s.mux.ServeHTTP(w, r)
}

// bodyCap picks the request-body limit for one request; ≤ 0 means no cap.
// Only the *streaming* corpus upload (raw TSV/AOL body) earns the large
// corpus cap: a JSON-envelope upload is slurped by decodeJSON, so it keeps
// the tight general cap — otherwise one multi-GB JSON body could
// materialize in memory.
func (s *Server) bodyCap(r *http.Request) int64 {
	if !strings.HasPrefix(r.URL.Path, "/v1/corpora/") || isJSONRequest(r) {
		return s.cfg.MaxBodyBytes
	}
	if r.Method == http.MethodPut ||
		(r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/append")) {
		return s.cfg.MaxCorpusBytes
	}
	return s.cfg.MaxBodyBytes
}

// handle registers a pattern with per-request metrics instrumentation, a
// root trace span (propagated via the request context and echoed in the
// X-Trace-Id response header) and structured request logging. The pattern
// doubles as the handler label in /metrics and as the root span name.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.register(pattern, h, true)
}

// handleUntraced registers a scrape-path pattern: metrics-observed but
// neither traced nor logged, so health probes and Prometheus scrapes do not
// evict real request traces from the ring buffer or spam the access log.
func (s *Server) handleUntraced(pattern string, h http.HandlerFunc) {
	s.register(pattern, h, false)
}

func (s *Server) register(pattern string, h http.HandlerFunc, traced bool) {
	label := pattern
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		var root *obs.Span
		if traced {
			var ctx context.Context
			ctx, root = s.tracer.Start(r.Context(), label)
			root.SetAttr("method", r.Method)
			root.SetAttr("path", r.URL.Path)
			w.Header().Set("X-Trace-Id", root.TraceID)
			r = r.WithContext(ctx)
		}
		h(rec, r)
		elapsed := time.Since(start)
		if root != nil {
			root.SetAttr("status", rec.code)
			root.End()
		}
		s.metrics.Observe(label, rec.code, elapsed.Seconds())
		if s.logger != nil && root != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.code),
				slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
				slog.String("trace_id", root.TraceID),
			)
		}
	})
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// --- Wire types ----------------------------------------------------------

// Record is the JSON form of one search log tuple.
type Record struct {
	User  string `json:"user"`
	Query string `json:"query"`
	URL   string `json:"url"`
	Count int    `json:"count"`
}

// sanitizeRequest is the JSON body of POST /v1/sanitize and POST /v1/jobs.
// Exactly one of Records and TSV must carry the log.
type sanitizeRequest struct {
	Options dpslog.Options `json:"options"`
	Records []Record       `json:"records,omitempty"`
	TSV     string         `json:"tsv,omitempty"`
}

// planJSON is the wire form of the audited optimization outcome.
type planJSON struct {
	Kind                string  `json:"kind"`
	OutputSize          int     `json:"output_size"`
	Objective           float64 `json:"objective"`
	RelaxationObjective float64 `json:"relaxation_objective"`
	Lambda              int     `json:"lambda,omitzero"`
	Iterations          int     `json:"iterations"`
	Components          int     `json:"components"`
	// ReusedComponents counts the connected components whose plans were
	// served from the component cache rather than re-solved — nonzero on
	// the incremental re-solves that follow a corpus append.
	ReusedComponents int  `json:"reused_components,omitzero"`
	NoiseApplied     bool `json:"noise_applied,omitzero"`
	// Counts are the per-pair output counts over the preprocessed input's
	// pair order, so clients can re-audit the release with VerifyCounts.
	Counts []int `json:"counts"`
}

// pairJSON is the wire form of one aggregate release row: a query-url pair
// and its noisy count, with no user attribution.
type pairJSON struct {
	Query string  `json:"query"`
	URL   string  `json:"url"`
	Count float64 `json:"count"`
}

// sanitizeResponse is the wire form of a completed sanitization. Cached and
// ElapsedMS are per-request and overwritten on each response; everything
// else is immutable once computed and shared via the plan cache.
type sanitizeResponse struct {
	Digest           string                 `json:"digest"`
	Seed             uint64                 `json:"seed"`
	InputSize        int                    `json:"input_size"`
	PreprocessedSize int                    `json:"preprocessed_size"`
	Preprocess       dpslog.PreprocessStats `json:"preprocess"`
	DroppedUsers     []string               `json:"dropped_users,omitempty"`
	Plan             planJSON               `json:"plan"`
	Records          []Record               `json:"records"`
	// Mechanism is the resolved release mechanism name ("ump" for the
	// paper's pipeline). Aggregate mechanisms populate Pairs instead of
	// Records.
	Mechanism string `json:"mechanism,omitempty"`
	// Pairs is the aggregate release of the histogram mechanisms
	// (laplace, zealous, localdp).
	Pairs []pairJSON `json:"pairs,omitempty"`
	// ReleaseDigest is the content hash of the released data — the output
	// log digest for ump, a hash over the released pair rows for aggregate
	// mechanisms. Identical seeds and canonical options yield identical
	// release digests.
	ReleaseDigest string  `json:"release_digest,omitempty"`
	Cached        bool    `json:"cached"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	// Trace is the request's span tree, stamped on the per-request response
	// copy when the client asked for ?debug=trace (never cached).
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

type lambdaRequest struct {
	Epsilon float64  `json:"epsilon,omitzero"`
	EExp    float64  `json:"eexp,omitzero"` // e^ε, the paper's parameterization
	Delta   float64  `json:"delta"`
	Records []Record `json:"records,omitempty"`
	TSV     string   `json:"tsv,omitempty"`
}

type statsRequest struct {
	Records []Record `json:"records,omitempty"`
	TSV     string   `json:"tsv,omitempty"`
}

// statusClientClosedRequest is the nginx-convention status recorded when
// the client disconnects before the solve completes; no body reaches the
// client, but metrics must not count the request as a 200.
const statusClientClosedRequest = 499

// --- Helpers -------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func isJSONRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return strings.HasPrefix(ct, "application/json")
}

// decodeJSON strictly decodes a JSON request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}

// buildLog materializes the log named by a (records, tsv) pair; exactly one
// source must be present.
func buildLog(records []Record, tsv string) (*dpslog.Log, error) {
	switch {
	case len(records) > 0 && tsv != "":
		return nil, errors.New("provide records or tsv, not both")
	case len(records) > 0:
		recs := make([]dpslog.Record, len(records))
		for i, r := range records {
			recs[i] = dpslog.Record{User: r.User, Query: r.Query, URL: r.URL, Count: r.Count}
		}
		return dpslog.NewLog(recs)
	case tsv != "":
		return dpslog.ReadTSV(strings.NewReader(tsv))
	}
	return nil, errors.New("empty log: provide records or tsv")
}

// decodeSanitizeRequest reads either a JSON envelope or a raw TSV body with
// query-parameter options.
func decodeSanitizeRequest(r *http.Request) (*dpslog.Log, dpslog.Options, error) {
	if isJSONRequest(r) {
		var req sanitizeRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, dpslog.Options{}, fmt.Errorf("bad JSON body: %w", err)
		}
		l, err := buildLog(req.Records, req.TSV)
		if err != nil {
			return nil, dpslog.Options{}, err
		}
		return l, req.Options, nil
	}
	opts, err := optionsFromQuery(r)
	if err != nil {
		return nil, dpslog.Options{}, err
	}
	l, err := dpslog.ReadTSV(r.Body)
	if err != nil {
		return nil, dpslog.Options{}, fmt.Errorf("bad TSV body: %w", err)
	}
	return l, opts, nil
}

// optionsFromQuery parses the TSV-body option surface: mechanism, eexp or
// epsilon, delta, objective, support, size, solver, seed, d.
func optionsFromQuery(r *http.Request) (dpslog.Options, error) {
	q := r.URL.Query()
	var opts dpslog.Options
	opts.Mechanism = q.Get("mechanism")
	getF := func(name string, dst *float64) error {
		if v := q.Get(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad query parameter %s=%q: %v", name, v, err)
			}
			*dst = f
		}
		return nil
	}
	var eexp float64
	if err := getF("eexp", &eexp); err != nil {
		return opts, err
	}
	if err := getF("epsilon", &opts.Epsilon); err != nil {
		return opts, err
	}
	if eexp != 0 {
		opts.Epsilon = math.Log(eexp)
	}
	if err := getF("delta", &opts.Delta); err != nil {
		return opts, err
	}
	if err := getF("support", &opts.MinSupport); err != nil {
		return opts, err
	}
	obj, err := dpslog.ParseObjective(q.Get("objective"))
	if err != nil {
		return opts, err
	}
	opts.Objective = obj
	if v := q.Get("size"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad query parameter size=%q: %v", v, err)
		}
		opts.OutputSize = n
	}
	opts.Solver = q.Get("solver")
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad query parameter seed=%q: %v", v, err)
		}
		opts.Seed = n
	}
	if v := q.Get("parallelism"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad query parameter parallelism=%q: %v", v, err)
		}
		opts.Parallelism = n
	}
	if v := q.Get("d"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad query parameter d=%q: %v", v, err)
		}
		opts.D = n
	}
	return opts, nil
}

// resolveMechanism maps the request's mechanism selection to its registered
// implementation and enforces the configured allowlist. Errors are client
// errors (400): an unknown or disabled mechanism name.
func (s *Server) resolveMechanism(opts dpslog.Options) (mechanism.Mechanism, error) {
	m, err := mechanism.Get(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	if len(s.cfg.Mechanisms) > 0 && !slices.Contains(s.cfg.Mechanisms, m.Name()) {
		return nil, fmt.Errorf("mechanism %q is disabled on this server (enabled: %s)",
			m.Name(), strings.Join(s.cfg.Mechanisms, ", "))
	}
	return m, nil
}

// seedFromDigest derives the deterministic default seed for requests that
// omit one: the first 8 bytes of the corpus digest. The same corpus posted
// twice without a seed sanitizes identically.
func seedFromDigest(digest string) uint64 {
	b, err := hex.DecodeString(digest)
	if err != nil || len(b) < 8 {
		return 1
	}
	return binary.BigEndian.Uint64(b[:8])
}

// cacheKey is the plan cache identity and the ledger's release identity:
// corpus digest ⊕ canonical options, and for UMP ⊕ the plan format. A
// format 1 key carries no format tag, so keys journaled before the tag
// existed are format 1 keys and no longer match a UMP request.
func cacheKey(digest string, opts dpslog.Options) string {
	canon := opts.Canonical()
	js, err := json.Marshal(canon)
	if err != nil {
		return digest // unreachable: Options marshals cleanly
	}
	key := digest + "\x00" + string(js)
	if canon.Mechanism == "" {
		key += fmt.Sprintf("\x00plan-format=%d", ump.PlanFormat)
	}
	return key
}

// --- Sanitization core ---------------------------------------------------

// runSanitize executes (or cache-serves) one sanitization, dispatching on
// the options' mechanism. It is called on a pool worker for sync requests,
// async jobs, and corpus releases. digest is the precomputed corpus
// identity — corpus requests pass the stored digest so referencing a corpus
// never re-hashes it.
func (s *Server) runSanitize(ctx context.Context, l *dpslog.Log, opts dpslog.Options, digest string) (*sanitizeResponse, error) {
	mech, err := mechanism.Get(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	obs.FromContext(ctx).SetAttr("mechanism", mech.Name())
	if opts.Seed == 0 {
		opts.Seed = seedFromDigest(digest)
	}
	if opts.Parallelism == 0 {
		// The server default, not the library default: Workers concurrent
		// solves already fill the cores, so each solve runs its components
		// at the configured parallelism (1 unless -solve-parallelism says
		// otherwise). The canonical options ignore Parallelism — plans are
		// invariant in it — so this does not fragment the plan cache.
		opts.Parallelism = s.cfg.SolveParallelism
	}
	key := cacheKey(digest, opts)
	_, csp := obs.Start(ctx, "cache.lookup")
	resp, ok := s.cache.Get(key)
	csp.SetAttr("hit", ok)
	csp.End()
	if ok {
		s.metrics.ObserveSanitizeMechanism(mech.Name())
		hit := *resp
		hit.Cached = true
		return &hit, nil
	}
	if mech.Name() != "ump" {
		// Aggregate mechanisms: no plan, no preprocessing stats — the
		// release is the noisy pair histogram.
		rel, err := mech.Sanitize(ctx, l, opts)
		if err != nil {
			return nil, err
		}
		pairs := make([]pairJSON, len(rel.Pairs))
		for i, pc := range rel.Pairs {
			pairs[i] = pairJSON{Query: pc.Query, URL: pc.URL, Count: pc.Count}
		}
		resp = &sanitizeResponse{
			Digest:        digest,
			Seed:          opts.Seed,
			InputSize:     l.Size(),
			Records:       []Record{},
			Mechanism:     mech.Name(),
			Pairs:         pairs,
			ReleaseDigest: rel.Digest(),
		}
		s.metrics.ObserveSanitizeMechanism(mech.Name())
		s.cache.Put(key, resp)
		own := *resp
		return &own, nil
	}
	san, err := dpslog.New(opts)
	if err != nil {
		return nil, err
	}
	// Re-solves of a known (corpus, canonical options) pair — i.e. plan
	// cache evictions — warm-start from that exact problem's previous
	// optimal basis. The pool is keyed by the full cache key on purpose:
	// the UMP LPs can have alternate optima, so seeding a solve with a
	// *different* problem's basis could land on a different optimal vertex
	// and make identical requests history-dependent. Per-key pools
	// reproduce the prior basis instead, preserving the determinism
	// contract.
	_, wsp := obs.Start(ctx, "warmpool.lookup")
	san.SetWarmCache(s.warm.get(key))
	wsp.End()
	// The component-plan cache makes post-append re-solves incremental:
	// components untouched by the append are served byte-identically from
	// cache, only the changed ones re-solve. One cache serves every corpus
	// and version — the component content digest is the reuse identity.
	san.SetCompCache(s.comp)
	res, err := san.SanitizeContext(ctx, l)
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, res.Output.NumTriplets())
	for _, rec := range res.Output.Records() {
		out = append(out, Record{User: rec.User, Query: rec.Query, URL: rec.URL, Count: rec.Count})
	}
	resp = &sanitizeResponse{
		Digest:           digest,
		Seed:             opts.Seed,
		InputSize:        l.Size(),
		PreprocessedSize: res.Preprocessed.Size(),
		Preprocess:       res.PreStats,
		DroppedUsers:     res.DroppedUsers,
		Plan: planJSON{
			Kind:                res.Plan.Kind,
			OutputSize:          res.Plan.OutputSize,
			Objective:           res.Plan.Objective,
			RelaxationObjective: res.Plan.RelaxationObjective,
			Lambda:              res.Plan.Lambda,
			Iterations:          res.Plan.Iterations,
			Components:          res.Plan.Components,
			ReusedComponents:    res.Plan.Reused,
			NoiseApplied:        res.Plan.NoiseApplied,
			Counts:              res.Plan.Counts,
		},
		Records:       out,
		Mechanism:     "ump",
		ReleaseDigest: res.Output.Digest(),
	}
	s.metrics.ObserveSanitizeMechanism("ump")
	s.metrics.ObserveSolveComponents(res.Plan.Components)
	s.metrics.ObserveSolver(res.Plan.Iterations, res.Plan.Solver)
	s.cache.Put(key, resp)
	// Callers stamp per-request fields (ElapsedMS, Cached) on the result, so
	// hand back a copy rather than the struct the cache now owns.
	own := *resp
	return &own, nil
}

// --- Handlers ------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

// handleReadyz is the readiness gate: 200 only once the corpus store has
// opened and the ledger journal has fully replayed (trivially immediate in
// stateless mode). Liveness is /healthz; this answers "may traffic be
// routed here yet".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.ready:
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
		return
	}
	if s.openErr != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "error",
			"error":  s.openErr.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ready",
		"corpus_store": s.corpora != nil,
		"uptime_s":     time.Since(s.started).Seconds(),
	})
}

// handleDebugTraces serves the ring buffer of recently completed request
// traces, newest first.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  s.tracer.Total(),
		"traces": s.tracer.Traces(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	workers, busy, queued := s.pool.Stats()
	hits, misses := s.cache.Stats()
	var lg *LedgerGauges
	// The ledger gauges need the stateful subsystems; a scrape during the
	// async open simply omits them rather than blocking Prometheus.
	stateReady := false
	select {
	case <-s.ready:
		stateReady = s.openErr == nil
	default:
	}
	if stateReady && s.corpora != nil {
		budget := s.budgets.Budget()
		lg = &LedgerGauges{
			BudgetEpsilon: budget.Epsilon,
			BudgetDelta:   budget.Delta,
		}
		for _, m := range s.corpora.List() {
			lg.Corpora++
			spent := s.budgets.Spent(m.Digest)
			lg.PerCorpus = append(lg.PerCorpus, CorpusSpend{
				Name:         m.Name,
				SpentEpsilon: spent.Epsilon,
				SpentDelta:   spent.Delta,
				Releases:     s.budgets.ReleaseCount(m.Digest),
			})
		}
	}
	inFlightBytes, inFlightUploads := s.gate.Stats()
	compHits, compMisses := s.comp.Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, Gauges{
		Workers:               workers,
		WorkersBusy:           busy,
		QueueDepth:            queued,
		Jobs:                  s.jobs.CountByState(),
		CacheEntries:          s.cache.Len(),
		CacheHits:             hits,
		CacheMisses:           misses,
		CompCacheEntries:      s.comp.Len(),
		CompCacheHits:         compHits,
		CompCacheMisses:       compMisses,
		IngestInFlightBytes:   inFlightBytes,
		IngestInFlightUploads: inFlightUploads,
		IngestCapacityBytes:   max(s.cfg.MaxIngestBytes, 0),
		Ledger:                lg,
	})
}

// allowedMethods maps each route to its methods, for 405s. The catch-all
// "/" pattern swallows the mux's own method matching, so the fallback
// handler re-derives it here.
var allowedMethods = map[string]string{
	"/healthz":         "GET",
	"/readyz":          "GET",
	"/metrics":         "GET",
	"/v1/sanitize":     "POST",
	"/v1/jobs":         "GET, POST",
	"/v1/lambda":       "POST",
	"/v1/stats":        "POST",
	"/v1/corpora":      "GET",
	"/v1/debug/traces": "GET",
}

// corpusAllow derives the allowed methods for /v1/corpora/{name}[/...]
// paths, mirroring the registered route patterns.
func corpusAllow(path string) (allow string, known bool) {
	rest, ok := strings.CutPrefix(path, "/v1/corpora/")
	if !ok || rest == "" {
		return "", false
	}
	switch parts := strings.SplitN(rest, "/", 2); {
	case len(parts) == 1:
		return "DELETE, GET, PUT", true
	case parts[1] == "sanitize" || parts[1] == "append":
		return "POST", true
	case parts[1] == "budget" || parts[1] == "releases",
		parts[1] == "versions" || strings.HasPrefix(parts[1], "versions/"):
		return "GET", true
	}
	return "", false
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	allow, known := allowedMethods[path]
	if !known && strings.HasPrefix(path, "/v1/jobs/") {
		allow, known = "GET", true
	}
	if !known {
		allow, known = corpusAllow(path)
	}
	if known {
		w.Header().Set("Allow", allow)
		s.writeError(w, http.StatusMethodNotAllowed, "%s does not allow %s (allowed: %s)", path, r.Method, allow)
		return
	}
	s.writeError(w, http.StatusNotFound, "no such endpoint: %s %s", r.Method, path)
}

func (s *Server) handleSanitize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx := r.Context()
	_, dsp := obs.Start(ctx, "decode")
	l, opts, err := decodeSanitizeRequest(r)
	dsp.End()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Validate before queueing so configuration mistakes fail fast with 400
	// instead of consuming a worker slot.
	if err := opts.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := s.resolveMechanism(opts); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, hsp := obs.Start(ctx, "digest")
	digest := dpslog.Digest(l)
	hsp.End()
	var (
		resp   *sanitizeResponse
		runErr error
	)
	// The queue.wait span closes as the first act of the task — on a worker
	// — so it measures exactly the backlog time. End is idempotent; the
	// second call below covers the never-ran error paths.
	_, qsp := obs.Start(ctx, "queue.wait")
	err = s.pool.Do(ctx, func() { qsp.End(); resp, runErr = s.runSanitize(ctx, l, opts, digest) })
	qsp.End()
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "worker pool saturated; retry or submit an async job to /v1/jobs")
		return
	case errors.Is(err, ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil: // client went away; the solve finishes in background
		w.WriteHeader(statusClientClosedRequest)
		return
	case runErr != nil:
		s.writeError(w, http.StatusUnprocessableEntity, "%v", runErr)
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if wantTrace(r) {
		// Snapshot from inside the still-open root span: it renders with its
		// live duration and in_flight set, taken at the same instant as
		// ElapsedMS above.
		resp.Trace = obs.FromContext(ctx).Snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

// wantTrace reports whether the client asked for the span tree inline.
func wantTrace(r *http.Request) bool {
	return r.URL.Query().Get("debug") == "trace"
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	l, opts, err := decodeSanitizeRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := opts.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := s.resolveMechanism(opts); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job := s.jobs.Create()
	submit := func() {
		s.jobs.Start(job.ID)
		// Async jobs outlive their submitting request, so each run is its
		// own root trace (visible in /v1/debug/traces by job_id).
		//slvet:ignore ctxflow async jobs deliberately detach: they outlive the submitting request and are cancelled via the job store, not the request context
		ctx, root := s.tracer.Start(context.Background(), "job sanitize")
		root.SetAttr("job_id", job.ID)
		defer root.End()
		start := time.Now()
		resp, err := s.runSanitize(ctx, l, opts, dpslog.Digest(l))
		if err != nil {
			root.SetAttr("error", err.Error())
			s.jobs.Fail(job.ID, err)
			return
		}
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		s.jobs.Finish(job.ID, resp)
	}
	// The abort path fails the job if the server shuts down while it is
	// still queued, so no job is ever stranded in "queued".
	if err := s.pool.SubmitTask(submit, func(e error) { s.jobs.Fail(job.ID, e) }); err != nil {
		// Load-shedding is not a job outcome: drop the never-started job so
		// the store doesn't accumulate failures no client holds an ID for.
		s.jobs.Remove(job.ID)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "worker pool saturated")
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	// The listing is an index: strip the (potentially huge) embedded
	// results; clients fetch a specific job's release via /v1/jobs/{id}.
	for i := range jobs {
		jobs[i].Result = nil
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleLambda(w http.ResponseWriter, r *http.Request) {
	var req lambdaRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	eps := req.Epsilon
	if req.EExp != 0 {
		eps = math.Log(req.EExp)
	}
	l, err := buildLog(req.Records, req.TSV)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var (
		lambda int
		runErr error
	)
	_, qsp := obs.Start(r.Context(), "queue.wait")
	err = s.pool.Do(r.Context(), func() {
		qsp.End()
		// Same oversubscription guard as sanitize solves: the worker pool
		// already fills the cores, so components solve at the configured
		// per-solve parallelism rather than the library's GOMAXPROCS.
		lambda, runErr = dpslog.LambdaParallelism(l, eps, req.Delta, s.cfg.SolveParallelism)
	})
	qsp.End()
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "worker pool saturated")
		return
	case errors.Is(err, ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil:
		w.WriteHeader(statusClientClosedRequest)
		return
	case runErr != nil:
		s.writeError(w, http.StatusBadRequest, "%v", runErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"digest":  dpslog.Digest(l),
		"epsilon": eps,
		"delta":   req.Delta,
		"lambda":  lambda,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var (
		l   *dpslog.Log
		err error
	)
	if isJSONRequest(r) {
		var req statsRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
		l, err = buildLog(req.Records, req.TSV)
	} else {
		l, err = dpslog.ReadTSV(r.Body)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pre, preStats := dpslog.Preprocess(l)
	writeJSON(w, http.StatusOK, map[string]any{
		"digest":       dpslog.Digest(l),
		"raw":          dpslog.ComputeStats(l),
		"preprocessed": dpslog.ComputeStats(pre),
		"preprocess":   preStats,
	})
}
