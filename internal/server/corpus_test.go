package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dpslog"
	"dpslog/internal/ump"
)

// do issues a request with an arbitrary method against the test server.
func (e *testEnv) do(t *testing.T, method, path, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// sanitizeBody builds the options-only corpus release body.
func sanitizeBody(seed uint64) []byte {
	return fmt.Appendf(nil, `{"options":{"epsilon":%g,"delta":0.25,"seed":%d}}`, math.Log(2), seed)
}

// budgetFor sizes a budget for exactly n (ε=ln 2, δ=0.25) releases.
func budgetFor(n int) dpslog.Budget {
	return dpslog.Budget{Epsilon: float64(n) * math.Log(2), Delta: float64(n) * 0.25}
}

func TestCorpusEndpointsDisabledWithoutDataDir(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	body := decode[apiError](t, raw)
	if body.Error == "" {
		t.Fatal("missing configuration hint")
	}
}

func TestCorpusCRUD(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir()})

	// Upload.
	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/tiny", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d: %s", resp.StatusCode, raw)
	}
	meta := decode[corpusMetaJSON](t, raw)
	if meta.Name != "tiny" || meta.Digest != dpslog.Digest(e.corpus) || meta.Size != e.corpus.Size() {
		t.Fatalf("meta %+v", meta)
	}
	if meta.Budget.Spent.Epsilon != 0 || meta.Budget.Remaining != meta.Budget.Budget {
		t.Fatalf("fresh corpus budget %+v", meta.Budget)
	}

	// Re-upload of the same data: 200, same digest.
	resp, raw = e.do(t, http.MethodPut, "/v1/corpora/tiny", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-PUT status %d: %s", resp.StatusCode, raw)
	}

	// GET + list.
	resp, raw = e.get(t, "/v1/corpora/tiny")
	if resp.StatusCode != http.StatusOK || decode[corpusMetaJSON](t, raw).Digest != meta.Digest {
		t.Fatalf("GET corpus: %d %s", resp.StatusCode, raw)
	}
	resp, raw = e.get(t, "/v1/corpora")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	list := decode[map[string][]corpusMetaJSON](t, raw)
	if len(list["corpora"]) != 1 || list["corpora"][0].Name != "tiny" {
		t.Fatalf("list %v", list)
	}

	// Invalid names and missing corpora.
	resp, _ = e.do(t, http.MethodPut, "/v1/corpora/..%2Fevil", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal name status %d", resp.StatusCode)
	}
	resp, _ = e.get(t, "/v1/corpora/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing corpus status %d", resp.StatusCode)
	}

	// Delete, then 404.
	resp, _ = e.do(t, http.MethodDelete, "/v1/corpora/tiny", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	resp, _ = e.get(t, "/v1/corpora/tiny")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted corpus still present: %d", resp.StatusCode)
	}

	// JSON envelope upload.
	resp, raw = e.do(t, http.MethodPut, "/v1/corpora/viaenv", "application/json",
		fmt.Appendf(nil, `{"tsv":%q}`, e.tsv))
	if resp.StatusCode != http.StatusCreated || decode[corpusMetaJSON](t, raw).Digest != meta.Digest {
		t.Fatalf("JSON PUT: %d %s", resp.StatusCode, raw)
	}
}

func TestCorpusSanitizeChargesAndIsIdempotent(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), Budget: budgetFor(2)})
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}

	// First release: charged.
	resp, raw := e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sanitize: %d %s", resp.StatusCode, raw)
	}
	rel := decode[corpusSanitizeResponse](t, raw)
	if rel.Release.Seq != 1 || rel.Release.Epsilon != math.Log(2) || rel.Release.Delta != 0.25 {
		t.Fatalf("release %+v", rel.Release)
	}
	if math.Abs(rel.Budget.Remaining.Epsilon-math.Log(2)) > 1e-9 || rel.Budget.Releases != 1 {
		t.Fatalf("budget after first release %+v", rel.Budget)
	}
	if len(rel.Records) == 0 || rel.Digest != dpslog.Digest(e.corpus) {
		t.Fatal("release carries no sanitized output")
	}

	// The identical request is the same release: free, same seq, same bytes.
	resp, raw = e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d %s", resp.StatusCode, raw)
	}
	again := decode[corpusSanitizeResponse](t, raw)
	if again.Release.Seq != 1 || again.Budget.Releases != 1 {
		t.Fatalf("replay was re-charged: %+v", again.Release)
	}
	if !again.Cached {
		t.Fatal("replay should be served from the plan cache")
	}

	// A different seed is a new release under sequential composition.
	resp, raw = e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second release: %d %s", resp.StatusCode, raw)
	}
	second := decode[corpusSanitizeResponse](t, raw)
	if second.Release.Seq != 2 || second.Budget.Remaining.Epsilon > 1e-9 {
		t.Fatalf("second release %+v budget %+v", second.Release, second.Budget)
	}

	// Budget exhausted: structured 429 with the remaining allowance.
	resp, raw = e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget status %d: %s", resp.StatusCode, raw)
	}
	type overEnvelope struct {
		Error  string           `json:"error"`
		Code   string           `json:"code"`
		Status int              `json:"status"`
		Detail overBudgetDetail `json:"detail"`
	}
	env := decode[overEnvelope](t, raw)
	if env.Code != "over_budget" || env.Status != http.StatusTooManyRequests || env.Error == "" {
		t.Fatalf("429 envelope %+v", env)
	}
	over := env.Detail
	if over.Corpus != "c" || over.Remaining.Epsilon != 0 || over.Remaining.Delta != 0 {
		t.Fatalf("429 payload %+v", over)
	}
	if over.Requested.Epsilon != math.Log(2) || over.Spent.Delta != 0.5 {
		t.Fatalf("429 accounting %+v", over)
	}

	// ...but the journaled releases remain replayable for free.
	resp, _ = e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("journaled replay after exhaustion: %d", resp.StatusCode)
	}

	// Budget and releases endpoints agree.
	_, raw = e.get(t, "/v1/corpora/c/budget")
	type budgetResp struct {
		Budget budgetJSON `json:"budget"`
	}
	if b := decode[budgetResp](t, raw); b.Budget.Releases != 2 || b.Budget.Remaining.Epsilon != 0 {
		t.Fatalf("budget endpoint %+v", b.Budget)
	}
	_, raw = e.get(t, "/v1/corpora/c/releases")
	type releasesResp struct {
		Releases []dpslog.Release `json:"releases"`
	}
	rels := decode[releasesResp](t, raw).Releases
	if len(rels) != 2 || rels[0].Seq != 1 || rels[1].Seq != 2 {
		t.Fatalf("releases endpoint %+v", rels)
	}

	// The ledger gauges surface in /metrics.
	_, raw = e.get(t, "/metrics")
	for _, want := range []string{
		"slserve_corpora 1",
		`slserve_ledger_releases_total{corpus="c"} 2`,
		"slserve_ledger_budget_delta 0.5",
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestCorpusJournalReplayAcrossRestart: accounting must survive a server
// restart byte-for-byte — same spend, same release history, same 429.
func TestCorpusJournalReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, DataDir: dir, Budget: budgetFor(2)}
	e := newTestEnv(t, cfg)
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	var want [2]corpusSanitizeResponse
	for i := range want {
		resp, raw := e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(uint64(i+1)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("release %d: %d %s", i, resp.StatusCode, raw)
		}
		want[i] = decode[corpusSanitizeResponse](t, raw)
	}
	e.ts.Close()
	e.srv.Close()

	// Restart on the same data dir: corpus and ledger state replay.
	re := newTestEnv(t, cfg)
	_, raw := re.get(t, "/v1/corpora/c/budget")
	type budgetResp struct {
		Digest string     `json:"digest"`
		Budget budgetJSON `json:"budget"`
	}
	b := decode[budgetResp](t, raw)
	if b.Digest != want[0].Digest {
		t.Fatalf("corpus digest diverged across restart: %s", b.Digest)
	}
	if b.Budget.Releases != 2 || b.Budget.Remaining.Epsilon != 0 || b.Budget.Remaining.Delta != 0 {
		t.Fatalf("replayed accounting %+v", b.Budget)
	}
	_, raw = re.get(t, "/v1/corpora/c/releases")
	type releasesResp struct {
		Releases []dpslog.Release `json:"releases"`
	}
	rels := decode[releasesResp](t, raw).Releases
	if len(rels) != 2 {
		t.Fatalf("replayed %d releases", len(rels))
	}
	for i := range rels {
		if rels[i] != want[i].Release {
			t.Fatalf("release %d diverged across restart:\n%+v\n%+v", i, rels[i], want[i].Release)
		}
	}
	// Still over budget; journaled keys still replay free and reproduce the
	// identical release identity.
	resp, raw := re.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(9))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-restart over-budget: %d %s", resp.StatusCode, raw)
	}
	resp, raw = re.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart replay: %d %s", resp.StatusCode, raw)
	}
	if got := decode[corpusSanitizeResponse](t, raw); got.Release != want[0].Release {
		t.Fatalf("post-restart replay release %+v, want %+v", got.Release, want[0].Release)
	}
}

// TestCorpusPlanFormatUpgradeCharges: a UMP release journaled under an
// older plan format may not reproduce its bytes on this build, so the same
// request after an upgrade is a new release, charged, not a free replay.
// Aggregate mechanisms do not solve LPs; their keys carry no format.
func TestCorpusPlanFormatUpgradeCharges(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Budget: budgetFor(3)}
	e := newTestEnv(t, cfg)
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	resp, raw := e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sanitize: %d %s", resp.StatusCode, raw)
	}
	first := decode[corpusSanitizeResponse](t, raw)
	e.ts.Close()
	e.srv.Close()

	// Rewrite the journal as a build before the format tag would have
	// written it.
	path := filepath.Join(dir, "ledger.journal")
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tag := fmt.Sprintf("\x00plan-format=%d", ump.PlanFormat)
	var legacy []byte
	for line := range bytes.Lines(journal) {
		var rel map[string]any
		if err := json.Unmarshal(line, &rel); err != nil {
			t.Fatal(err)
		}
		key, _ := rel["key"].(string)
		if !strings.HasSuffix(key, tag) {
			t.Fatalf("journaled UMP key %q carries no plan format", key)
		}
		rel["key"] = strings.TrimSuffix(key, tag)
		out, err := json.Marshal(rel)
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(append(legacy, out...), '\n')
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	re := newTestEnv(t, cfg)
	resp, raw = re.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sanitize after upgrade: %d %s", resp.StatusCode, raw)
	}
	again := decode[corpusSanitizeResponse](t, raw)
	if again.Release.Seq != first.Release.Seq+1 || again.Budget.Releases != 2 {
		t.Fatalf("format 1 release replayed on format %d: %+v, %d releases",
			ump.PlanFormat, again.Release, again.Budget.Releases)
	}

	// Aggregate mechanism keys are untouched.
	resp, raw = re.post(t, "/v1/corpora/c/sanitize", "application/json",
		fmt.Appendf(nil, `{"options":{"mechanism":"zealous","epsilon":%g,"delta":0.25,"seed":1}}`, math.Log(2)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zealous sanitize: %d %s", resp.StatusCode, raw)
	}
	_, raw = re.get(t, "/v1/corpora/c/releases")
	var rels struct {
		Releases []dpslog.Release `json:"releases"`
	}
	if err := json.Unmarshal(raw, &rels); err != nil {
		t.Fatal(err)
	}
	if n := len(rels.Releases); n != 3 || strings.Contains(rels.Releases[n-1].Key, "plan-format") {
		t.Fatalf("releases %+v", rels.Releases)
	}
}

// TestCorpusConcurrentReleasesNeverOverspend: N goroutines race distinct
// releases against a budget sized for K < N; exactly K must succeed and the
// ledger must never exceed the budget. Run with -race.
func TestCorpusConcurrentReleasesNeverOverspend(t *testing.T) {
	const (
		admit   = 3
		clients = 12
	)
	e := newTestEnv(t, Config{Workers: 4, Queue: 64, DataDir: t.TempDir(), Budget: budgetFor(admit)})
	if resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	var ok200, ok429, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			resp, err := http.Post(e.ts.URL+"/v1/corpora/c/sanitize", "application/json",
				bytes.NewReader(sanitizeBody(seed)))
			if err != nil {
				other.Add(1)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				ok429.Add(1)
			default:
				other.Add(1)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d requests failed outside 200/429", other.Load())
	}
	if ok200.Load() != admit || ok429.Load() != clients-admit {
		t.Fatalf("200s=%d 429s=%d, want %d/%d", ok200.Load(), ok429.Load(), admit, clients-admit)
	}
	digest := dpslog.Digest(e.corpus)
	spent := e.srv.budgets.Spent(digest)
	budget := e.srv.budgets.Budget()
	if spent.Epsilon > budget.Epsilon+1e-9 || spent.Delta > budget.Delta+1e-9 {
		t.Fatalf("ledger overspent: %+v > %+v", spent, budget)
	}
}

func TestCorpusMethodNotAllowed(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir()})
	resp, _ := e.post(t, "/v1/corpora/c", "application/json", []byte("{}"))
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on corpus resource: %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "DELETE, GET, PUT" {
		t.Fatalf("Allow %q", allow)
	}
	resp, _ = e.get(t, "/v1/corpora/c/sanitize")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on sanitize: %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("Allow %q", allow)
	}
}
