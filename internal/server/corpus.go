package server

// The stateful corpus subsystem of slserve: named, disk-backed corpora
// (internal/corpus) sanitized by reference, with every release charged
// against a per-corpus (ε, δ) budget under sequential composition
// (internal/ledger). Upload once, sanitize many — a release request
// carries options only, so throughput is no longer bottlenecked on
// re-uploading and re-parsing megabyte TSV bodies, and the privacy spend
// of a dataset is enforced across its whole release history rather than
// silently recomposed per request.

import (
	"errors"
	"net/http"
	"strings"
	"time"

	"dpslog"
	"dpslog/internal/corpus"
	"dpslog/internal/ingest"
	"dpslog/internal/obs"
	"dpslog/internal/searchlog"
)

// corpusMetaJSON is the wire form of a stored corpus: its identity plus
// its live budget accounting. Versions is the append chain, base first —
// populated on single-corpus reads, omitted from the listing.
type corpusMetaJSON struct {
	corpus.Meta
	Budget   budgetJSON       `json:"budget"`
	Versions []corpus.Version `json:"versions,omitempty"`
}

// budgetJSON is the accounting snapshot attached to corpus metadata,
// budget queries, and over-budget refusals.
type budgetJSON struct {
	Budget    dpslog.Budget `json:"budget"`
	Spent     dpslog.Budget `json:"spent"`
	Remaining dpslog.Budget `json:"remaining"`
	Releases  int           `json:"releases"`
}

// corpusSanitizeRequest is the options-only body of POST
// /v1/corpora/{name}/sanitize — the corpus itself is referenced by name.
type corpusSanitizeRequest struct {
	Options dpslog.Options `json:"options"`
}

// corpusSanitizeResponse extends a sanitization with its ledger entry and
// the corpus's post-charge accounting. Version is the digest of the corpus
// version the release was computed from and charged against — the latest
// unless the request selected an ancestor with ?version=.
type corpusSanitizeResponse struct {
	sanitizeResponse
	Corpus  string         `json:"corpus"`
	Version string         `json:"version"`
	Release dpslog.Release `json:"release"`
	Budget  budgetJSON     `json:"budget"`
}

// corpusAppendResponse is the wire form of a completed append: the new
// latest metadata, the chain entry it created, and the budget of the new
// version's digest (fresh — versions compose independently).
type corpusAppendResponse struct {
	corpus.Meta
	Version      corpus.Version `json:"version"`
	TouchedUsers int            `json:"touched_users"`
	Budget       budgetJSON     `json:"budget"`
}

// overBudgetDetail is the 429 envelope detail: what was asked, what is
// left.
type overBudgetDetail struct {
	Corpus    string        `json:"corpus"`
	Digest    string        `json:"digest"`
	Requested dpslog.Budget `json:"requested"`
	Budget    dpslog.Budget `json:"budget"`
	Spent     dpslog.Budget `json:"spent"`
	Remaining dpslog.Budget `json:"remaining"`
}

// corpusEnabled gates a corpus handler on the subsystem being configured
// and opened. During the async open (store scan + ledger journal replay)
// requests wait rather than fail, bounded by the client's own context; a
// failed open answers 503 with the cause.
func (s *Server) corpusEnabled(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-s.ready:
		case <-r.Context().Done():
			w.WriteHeader(statusClientClosedRequest)
			return
		}
		if s.openErr != nil {
			s.writeError(w, http.StatusServiceUnavailable, "corpus subsystem failed to open: %v", s.openErr)
			return
		}
		if s.corpora == nil {
			s.writeError(w, http.StatusServiceUnavailable, "corpus store not configured: start slserve with -data-dir")
			return
		}
		h(w, r)
	}
}

// budgetStatus snapshots the ledger accounting for one corpus digest.
func (s *Server) budgetStatus(digest string) budgetJSON {
	return budgetJSON{
		Budget:    s.budgets.Budget(),
		Spent:     s.budgets.Spent(digest),
		Remaining: s.budgets.Remaining(digest),
		Releases:  s.budgets.ReleaseCount(digest),
	}
}

func (s *Server) writeOverBudget(w http.ResponseWriter, name string, over *dpslog.OverBudgetError) {
	w.Header().Set("Retry-After", "86400") // budget does not replenish; a long hint
	s.writeErrorDetail(w, http.StatusTooManyRequests, "over_budget", overBudgetDetail{
		Corpus:    name,
		Digest:    over.Digest,
		Requested: over.Requested,
		Budget:    over.Budget,
		Spent:     over.Spent,
		Remaining: over.Remaining,
	}, "%s", over.Error())
}

// uploadFormat negotiates the raw-body format of a corpus upload or append
// from the Content-Type header:
//
//	text/tab-separated-values  canonical 4-column TSV (also text/plain,
//	                           application/octet-stream, or no Content-Type)
//	application/x-aol-log      the historical AOL 5-column form
//
// Unrecognized content types fall back to TSV rather than 415, preserving
// the historical any-body-is-TSV behavior for curl-style clients that never
// set a type. A format query parameter is an error rather than ignored, so
// a client still selecting the format that way is not silently ingested
// as TSV.
func uploadFormat(r *http.Request) (ingest.Format, error) {
	if r.URL.Query().Has("format") {
		return 0, errors.New("the format query parameter is not supported; select the body format with Content-Type: text/tab-separated-values or application/x-aol-log")
	}
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.TrimSpace(strings.ToLower(ct)) == "application/x-aol-log" {
		return ingest.FormatAOL, nil
	}
	return ingest.FormatTSV, nil
}

// decodeCorpusUpload materializes the uploaded log of a PUT or append:
// a JSON envelope {"records": [...]} / {"tsv": "..."} slurped under the
// general body cap, or a raw body in the negotiated format streamed through
// the sharded ingest fold — bounded memory however large the upload, with
// the admission gate (managed by the caller) shedding uploads that would
// overcommit it. On failure the response has been written and ok is false.
func (s *Server) decodeCorpusUpload(w http.ResponseWriter, r *http.Request) (l *dpslog.Log, ok bool) {
	format, err := uploadFormat(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	if isJSONRequest(r) {
		var req statsRequest // same {records, tsv} envelope as /v1/stats
		if err := decodeJSON(r, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return nil, false
		}
		l, err = buildLog(req.Records, req.TSV)
	} else {
		var st ingest.Stats
		_, isp := obs.Start(r.Context(), "ingest")
		l, st, err = ingest.Ingest(r.Body, ingest.Config{
			Format: format,
			Shards: s.cfg.IngestShards,
			Scan:   searchlog.ScanConfig{ChunkBytes: s.cfg.IngestChunkBytes},
		})
		if err == nil {
			isp.SetAttr("rows", st.Rows)
			isp.SetAttr("rows_per_sec", st.RowsPerSec)
		}
		isp.End()
		if err == nil {
			s.metrics.ObserveIngest(st.Rows, st.RowsPerSec, st.SkewRatio, st.PeakHeapBytes)
		} else {
			s.metrics.ObserveIngestFailure()
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "corpus body exceeds the %d-byte cap", tooBig.Limit)
			return nil, false
		}
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return l, true
}

// reserveIngest acquires ingest-gate capacity for the request body (or
// writes the 503). Chunked uploads carry no Content-Length; they reserve a
// quarter of the gate. The caller must release the returned reservation.
func (s *Server) reserveIngest(w http.ResponseWriter, r *http.Request) (reserve int64, ok bool) {
	reserve = r.ContentLength
	if reserve <= 0 {
		reserve = s.cfg.MaxIngestBytes / 4
	}
	if !s.gate.tryAcquire(reserve) {
		inFlight, _ := s.gate.Stats()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "corpus ingest capacity exhausted (%d bytes in flight); retry shortly", inFlight)
		return 0, false
	}
	return reserve, true
}

// handleCorpusPut uploads (or replaces) a corpus, resetting its version
// chain to a single base version (the privacy ledger survives either way —
// accounting is keyed by digest, not name).
func (s *Server) handleCorpusPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !corpus.ValidName(name) {
		s.writeError(w, http.StatusBadRequest, "invalid corpus name %q (want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric, no .d<n> suffix)", name)
		return
	}
	// Reserve ingest capacity before reading a byte.
	reserve, ok := s.reserveIngest(w, r)
	if !ok {
		return
	}
	defer s.gate.release(reserve)
	l, ok := s.decodeCorpusUpload(w, r)
	if !ok {
		return
	}
	if l.Size() == 0 {
		s.writeError(w, http.StatusBadRequest, "refusing to store an empty corpus")
		return
	}
	_, existed := s.corpora.Meta(name)
	m, err := s.corpora.Put(name, l)
	if err != nil {
		// Name and emptiness were validated above; what remains is the
		// server's own disk failing, which is not the client's fault.
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, corpusMetaJSON{Meta: m, Budget: s.budgetStatus(m.Digest)})
}

// handleCorpusAppend folds new rows into the latest version of a stored
// corpus, producing a new immutable version (POST /v1/corpora/{name}/append).
// The body is the same shape as a PUT — raw TSV/AOL streamed through the
// sharded ingest fold, or a small JSON envelope. The new version has its own
// digest, and therefore its own untouched (ε, δ) budget; releases already
// journaled against ancestor versions stay replayable and spend-free.
func (s *Server) handleCorpusAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.corpora.Meta(name); !ok {
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
		return
	}
	reserve, ok := s.reserveIngest(w, r)
	if !ok {
		return
	}
	defer s.gate.release(reserve)
	l, ok := s.decodeCorpusUpload(w, r)
	if !ok {
		return
	}
	m, v, touched, err := s.corpora.Append(name, l)
	switch {
	case errors.Is(err, corpus.ErrEmptyDelta):
		s.writeError(w, http.StatusBadRequest, "refusing to append an empty delta")
		return
	case errors.Is(err, corpus.ErrNotFound): // raced a DELETE
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, corpusAppendResponse{
		Meta:         m,
		Version:      v,
		TouchedUsers: len(touched),
		Budget:       s.budgetStatus(m.Digest),
	})
}

func (s *Server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	metas := s.corpora.List()
	out := make([]corpusMetaJSON, len(metas))
	for i, m := range metas {
		out[i] = corpusMetaJSON{Meta: m, Budget: s.budgetStatus(m.Digest)}
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpora": out})
}

// lookupCorpus resolves {name} or writes the 404.
func (s *Server) lookupCorpus(w http.ResponseWriter, r *http.Request) (corpus.Meta, bool) {
	name := r.PathValue("name")
	m, ok := s.corpora.Meta(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
		return corpus.Meta{}, false
	}
	return m, true
}

func (s *Server) handleCorpusGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	vs, _ := s.corpora.Versions(m.Name)
	writeJSON(w, http.StatusOK, corpusMetaJSON{Meta: m, Budget: s.budgetStatus(m.Digest), Versions: vs})
}

// handleCorpusVersionList serves the corpus's version chain, base first.
func (s *Server) handleCorpusVersionList(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	vs, err := s.corpora.Versions(m.Name)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", m.Name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":   m.Name,
		"latest":   m.Digest,
		"versions": vs,
	})
}

// handleCorpusVersionGet serves one chain entry with the budget accounting
// of that version's digest — each version composes its releases
// independently, so an append never launders (or inherits) spend.
func (s *Server) handleCorpusVersionGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	digest := r.PathValue("digest")
	v, err := s.corpora.VersionMeta(m.Name, digest)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "corpus %q has no version %s", m.Name, digest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":  m.Name,
		"version": v,
		"latest":  v.Digest == m.Digest,
		"budget":  s.budgetStatus(v.Digest),
	})
}

// writeVersionError writes the error of a failed corpus version lookup
// (?version= names the version; empty means the latest).
func (s *Server) writeVersionError(w http.ResponseWriter, name, version string, err error) {
	switch {
	case errors.Is(err, corpus.ErrNotFound):
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
	case errors.Is(err, corpus.ErrVersionNotFound):
		s.writeError(w, http.StatusNotFound, "corpus %q has no version %s", name, version)
	default: // materialization failed: the server's own disk
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleCorpusDelete(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupCorpus(w, r)
	if !ok {
		return
	}
	if err := s.corpora.Delete(m.Name); err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The ledger deliberately survives deletion: accounting is keyed by
	// digest, so re-uploading the same dataset resumes the same budget.
	writeJSON(w, http.StatusOK, map[string]any{"deleted": m.Name, "digest": m.Digest})
}

func (s *Server) handleCorpusBudget(w http.ResponseWriter, r *http.Request) {
	name, version := r.PathValue("name"), r.URL.Query().Get("version")
	v, err := s.corpora.VersionMeta(name, version)
	if err != nil {
		s.writeVersionError(w, name, version, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":  name,
		"digest":  v.Digest,
		"version": v.Digest,
		"budget":  s.budgetStatus(v.Digest),
	})
}

func (s *Server) handleCorpusReleases(w http.ResponseWriter, r *http.Request) {
	name, version := r.PathValue("name"), r.URL.Query().Get("version")
	v, err := s.corpora.VersionMeta(name, version)
	if err != nil {
		s.writeVersionError(w, name, version, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":   name,
		"digest":   v.Digest,
		"version":  v.Digest,
		"releases": s.budgets.Releases(v.Digest),
	})
}

// handleCorpusSanitize releases a sanitization of a stored corpus through
// the mechanism the options name. Each mechanism declares its own (ε, δ)
// release cost (internal/mechanism), which is what the ledger pre-checks
// and charges under sequential composition. The release is charged against
// the corpus budget *after* the solve succeeds but *before* any output byte
// reaches the client; identical releases (same digest, canonical options
// and seed — byte-identical output) are idempotent and free. Requests the
// remaining budget cannot cover get a structured 429 carrying the remaining
// (ε, δ).
func (s *Server) handleCorpusSanitize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Capture the (log, version) pair once, atomically: the Log is
	// immutable, so a concurrent PUT or append cannot desynchronize the data
	// the solve reads from the digest the ledger charges and the plan cache
	// keys — the release is always accounted against exactly the dataset it
	// was computed from. ?version= selects an ancestor of the chain; the
	// default is the latest. Everything downstream — seed, plan cache,
	// ledger check and charge — is keyed by that version's digest, so
	// old-version releases compose against that version's own budget and
	// replay for free forever.
	name, version := r.PathValue("name"), r.URL.Query().Get("version")
	l, v, err := s.corpora.GetVersion(name, version)
	if err != nil {
		s.writeVersionError(w, name, version, err)
		return
	}
	digest := v.Digest
	var req corpusSanitizeRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mech, ok := s.admit(w, req.Options)
	if !ok {
		return
	}
	// Fix the release identity (seed included) before any work happens.
	opts, key := s.identify(req.Options, digest)
	cost := mech.Cost(opts)
	eps, delta := cost.Epsilon, cost.Delta

	// Non-binding pre-check: refuse obviously over-budget requests before
	// paying for a solve. The binding decision is the post-solve Charge.
	if err := s.budgets.CheckCtx(r.Context(), digest, key, eps, delta); err != nil {
		var over *dpslog.OverBudgetError
		if errors.As(err, &over) {
			s.writeOverBudget(w, name, over)
			return
		}
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	var (
		resp   *sanitizeResponse
		runErr error
	)
	ctx := r.Context()
	if !s.onPool(ctx, w, "worker pool saturated", func() {
		resp, runErr = s.runSanitize(ctx, l, mech, opts, digest, key)
	}) {
		return
	}
	if runErr != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "%v", runErr)
		return
	}

	// Charge-then-release: the journal entry is durable before the first
	// output byte leaves the server. A race with concurrent releases can
	// still exhaust the budget here; the solve is then discarded — compute
	// is wasted, privacy is not.
	rel, _, err := s.budgets.ChargeCtx(ctx, name, digest, key, mech.Name(), eps, delta)
	if err != nil {
		var over *dpslog.OverBudgetError
		if errors.As(err, &over) {
			s.writeOverBudget(w, name, over)
			return
		}
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if wantTrace(r) {
		resp.Trace = obs.FromContext(ctx).Snapshot()
	}
	writeJSON(w, http.StatusOK, corpusSanitizeResponse{
		sanitizeResponse: *resp,
		Corpus:           name,
		Version:          digest,
		Release:          rel,
		Budget:           s.budgetStatus(digest),
	})
}
