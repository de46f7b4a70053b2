package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"dpslog"
)

// testEnv is one started server plus the corpus every test drives it with.
type testEnv struct {
	ts     *httptest.Server
	srv    *Server
	corpus *dpslog.Log
	tsv    []byte
}

func newTestEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	corpus, err := dpslog.Generate("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := dpslog.WriteTSV(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	return &testEnv{ts: ts, srv: srv, corpus: corpus, tsv: buf.Bytes()}
}

func (e *testEnv) post(t *testing.T, path, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(e.ts.URL+path, contentType, bytes.NewReader(body))
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

func (e *testEnv) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(e.ts.URL + path)
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

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, raw := e.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decode[map[string]any](t, raw)
	if body["status"] != "ok" {
		t.Fatalf("healthz body %v", body)
	}
}

func TestSanitizeTSVBody(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, raw := e.post(t, "/v1/sanitize?eexp=2&delta=0.5&seed=9", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[sanitizeResponse](t, raw)
	if out.Plan.Kind != "O-UMP" || out.Plan.OutputSize <= 0 {
		t.Fatalf("unexpected plan: %+v", out.Plan)
	}
	if out.Seed != 9 || out.Cached || out.Digest != dpslog.Digest(e.corpus) {
		t.Fatalf("seed/cached/digest wrong: seed=%d cached=%v", out.Seed, out.Cached)
	}
	if len(out.Records) == 0 {
		t.Fatal("no output records")
	}
	// The released plan must re-audit cleanly against Theorem 1 on the
	// client side, using only response data plus the posted corpus.
	pre, _ := dpslog.Preprocess(e.corpus)
	if err := dpslog.VerifyCounts(pre, math.Log(2), 0.5, out.Plan.Counts); err != nil {
		t.Fatalf("client-side audit failed: %v", err)
	}
	// The output records must realize exactly the plan's output size.
	total := 0
	for _, r := range out.Records {
		total += r.Count
	}
	if total != out.Plan.OutputSize {
		t.Fatalf("output mass %d != plan size %d", total, out.Plan.OutputSize)
	}
}

func TestSanitizeJSONRecords(t *testing.T) {
	e := newTestEnv(t, Config{})
	recs := make([]Record, 0, e.corpus.NumTriplets())
	for _, r := range e.corpus.Records() {
		recs = append(recs, Record{User: r.User, Query: r.Query, URL: r.URL, Count: r.Count})
	}
	req := sanitizeRequest{
		Options: dpslog.Options{Epsilon: math.Log(2), Delta: 0.5, Seed: 9},
		Records: recs,
	}
	body, _ := json.Marshal(req)
	resp, raw := e.post(t, "/v1/sanitize", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[sanitizeResponse](t, raw)

	// Identical corpus + options via TSV must give the identical release.
	_, rawTSV := e.post(t, "/v1/sanitize?eexp=2&delta=0.5&seed=9", "text/plain", e.tsv)
	outTSV := decode[sanitizeResponse](t, rawTSV)
	if out.Digest != outTSV.Digest || out.Plan.OutputSize != outTSV.Plan.OutputSize {
		t.Fatalf("JSON and TSV posts of one corpus disagree: %+v vs %+v", out.Plan, outTSV.Plan)
	}
}

func TestSanitizeObjectiveNamesInJSON(t *testing.T) {
	e := newTestEnv(t, Config{})
	body := fmt.Sprintf(`{"options":{"epsilon":%g,"delta":0.5,"objective":"diversity","solver":"greedy"},"tsv":%q}`,
		math.Log(2), e.tsv)
	resp, raw := e.post(t, "/v1/sanitize", "application/json", []byte(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if out := decode[sanitizeResponse](t, raw); out.Plan.Kind != "D-UMP" {
		t.Fatalf("objective name not honored: %+v", out.Plan)
	}
}

func TestSanitizeCacheAndDeterministicSeed(t *testing.T) {
	e := newTestEnv(t, Config{})
	// No seed given: the server derives one from the corpus digest.
	_, raw1 := e.post(t, "/v1/sanitize?eexp=2&delta=0.5", "text/plain", e.tsv)
	out1 := decode[sanitizeResponse](t, raw1)
	if out1.Cached || out1.Seed == 0 {
		t.Fatalf("first response: cached=%v seed=%d", out1.Cached, out1.Seed)
	}
	_, raw2 := e.post(t, "/v1/sanitize?eexp=2&delta=0.5", "text/plain", e.tsv)
	out2 := decode[sanitizeResponse](t, raw2)
	if !out2.Cached {
		t.Fatal("second identical request should hit the plan cache")
	}
	if out2.Seed != out1.Seed || len(out2.Records) != len(out1.Records) {
		t.Fatal("cache hit must return the identical release")
	}
	if hits, _ := e.srv.cache.Stats(); hits < 1 {
		t.Fatalf("cache hits = %d, want ≥ 1", hits)
	}
	// A different seed is a different cache key, not a stale hit.
	_, raw3 := e.post(t, "/v1/sanitize?eexp=2&delta=0.5&seed=12345", "text/plain", e.tsv)
	if out3 := decode[sanitizeResponse](t, raw3); out3.Cached {
		t.Fatal("different seed must not be served from cache")
	}
}

func TestSanitizeBadInputs(t *testing.T) {
	e := newTestEnv(t, Config{})
	cases := []struct {
		name        string
		path        string
		contentType string
		body        string
		wantCode    int
		wantErr     string
	}{
		{"malformed JSON", "/v1/sanitize", "application/json", `{"options":`, http.StatusBadRequest, "bad JSON"},
		{"unknown JSON field", "/v1/sanitize", "application/json", `{"option":{}}`, http.StatusBadRequest, "unknown field"},
		{"records and tsv", "/v1/sanitize", "application/json",
			`{"options":{"epsilon":0.7,"delta":0.5},"records":[{"user":"u","query":"q","url":"l","count":1}],"tsv":"x"}`,
			http.StatusBadRequest, "not both"},
		{"no log", "/v1/sanitize", "application/json", `{"options":{"epsilon":0.7,"delta":0.5}}`, http.StatusBadRequest, "empty log"},
		{"bad delta", "/v1/sanitize?eexp=2&delta=1.5", "text/plain", "u\tq\tl\t1\n", http.StatusBadRequest, "δ"},
		{"unknown solver", "/v1/sanitize?eexp=2&delta=0.5&objective=diversity&solver=cplex", "text/plain", "u\tq\tl\t1\n",
			http.StatusBadRequest, "spe"},
		{"unknown objective", "/v1/sanitize?eexp=2&delta=0.5&objective=magic", "text/plain", "u\tq\tl\t1\n",
			http.StatusBadRequest, "objective"},
		{"bad TSV", "/v1/sanitize?eexp=2&delta=0.5", "text/plain", "only\tthree\tcols\n", http.StatusBadRequest, "4 tab-separated"},
		{"bad seed", "/v1/sanitize?eexp=2&delta=0.5&seed=banana", "text/plain", "u\tq\tl\t1\n", http.StatusBadRequest, "seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := e.post(t, tc.path, tc.contentType, []byte(tc.body))
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantCode, raw)
			}
			if msg := decode[apiError](t, raw); !strings.Contains(msg.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", msg.Error, tc.wantErr)
			}
		})
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, err := http.Get(e.ts.URL + "/v1/sanitize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sanitize = %d, want 405", resp.StatusCode)
	}
	resp2, raw := e.get(t, "/nope")
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp2.StatusCode)
	}
	if msg := decode[apiError](t, raw); !strings.Contains(msg.Error, "/nope") {
		t.Fatalf("404 body should name the path: %q", msg.Error)
	}
}

func TestJobsLifecycle(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, raw := e.post(t, "/v1/jobs?eexp=2&delta=0.5&seed=9", "text/plain", e.tsv)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	job := decode[Job](t, raw)
	if job.ID == "" || job.State != JobQueued {
		t.Fatalf("bad job snapshot: %+v", job)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}

	deadline := time.Now().Add(30 * time.Second)
	var final Job
	for {
		_, raw := e.get(t, "/v1/jobs/"+job.ID)
		final = decode[Job](t, raw)
		if final.State == JobDone || final.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", final.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.State != JobDone || final.Result == nil {
		t.Fatalf("job failed: %+v", final)
	}

	// The async result must equal the sync result for the same request.
	_, rawSync := e.post(t, "/v1/sanitize?eexp=2&delta=0.5&seed=9", "text/plain", e.tsv)
	sync := decode[sanitizeResponse](t, rawSync)
	if final.Result.Plan.OutputSize != sync.Plan.OutputSize || final.Result.Digest != sync.Digest {
		t.Fatalf("async plan %+v != sync plan %+v", final.Result.Plan, sync.Plan)
	}

	_, rawList := e.get(t, "/v1/jobs")
	list := decode[map[string][]Job](t, rawList)
	found := false
	for _, j := range list["jobs"] {
		found = found || j.ID == job.ID
		if j.Result != nil {
			t.Fatalf("listing must strip embedded results: %+v", j)
		}
	}
	if !found {
		t.Fatalf("job %s missing from list %v", job.ID, list)
	}
	// Stripping results from the listing must not reach the stored job: a
	// re-fetch by ID still carries the full release.
	_, rawAfter := e.get(t, "/v1/jobs/"+job.ID)
	after := decode[Job](t, rawAfter)
	if after.Result == nil || after.Result.Digest != final.Result.Digest {
		t.Fatalf("listing aliased the stored job result away: %+v", after)
	}

	resp3, _ := e.get(t, "/v1/jobs/job-999999")
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp3.StatusCode)
	}
}

func TestJobsBadInput(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, raw := e.post(t, "/v1/jobs?eexp=2&delta=7", "text/plain", e.tsv)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	// Invalid submissions are rejected before a job is created.
	if jobs := e.srv.jobs.List(); len(jobs) != 0 {
		t.Fatalf("rejected submission must not create a job: %v", jobs)
	}
}

func TestLambdaEndpoint(t *testing.T) {
	e := newTestEnv(t, Config{})
	body := fmt.Sprintf(`{"eexp":2,"delta":0.5,"tsv":%q}`, e.tsv)
	resp, raw := e.post(t, "/v1/lambda", "application/json", []byte(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[map[string]any](t, raw)
	want, err := dpslog.Lambda(e.corpus, math.Log(2), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(out["lambda"].(float64)); got != want {
		t.Fatalf("lambda = %d, want %d", got, want)
	}

	resp2, _ := e.post(t, "/v1/lambda", "application/json", []byte(`{`))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d, want 400", resp2.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	e := newTestEnv(t, Config{})
	resp, raw := e.post(t, "/v1/stats", "text/plain", e.tsv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[struct {
		Digest       string       `json:"digest"`
		Raw          dpslog.Stats `json:"raw"`
		Preprocessed dpslog.Stats `json:"preprocessed"`
	}](t, raw)
	wantRaw := dpslog.ComputeStats(e.corpus)
	pre, _ := dpslog.Preprocess(e.corpus)
	wantPre := dpslog.ComputeStats(pre)
	if out.Raw != wantRaw || out.Preprocessed != wantPre {
		t.Fatalf("stats mismatch: %+v / %+v, want %+v / %+v", out.Raw, out.Preprocessed, wantRaw, wantPre)
	}
}

func TestMetricsScrape(t *testing.T) {
	e := newTestEnv(t, Config{})
	e.post(t, "/v1/sanitize?eexp=2&delta=0.5", "text/plain", e.tsv)
	e.post(t, "/v1/sanitize?eexp=2&delta=0.5", "text/plain", e.tsv) // cache hit
	e.get(t, "/healthz")
	resp, raw := e.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := string(raw)
	for _, want := range []string{
		`slserve_requests_total{handler="POST /v1/sanitize",code="200"} 2`,
		`slserve_requests_total{handler="GET /healthz",code="200"} 1`,
		`slserve_request_duration_seconds_count{handler="POST /v1/sanitize"} 2`,
		"slserve_workers ",
		"slserve_plan_cache_hits_total 1",
		"slserve_plan_cache_entries 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestSaturationReturns503(t *testing.T) {
	e := newTestEnv(t, Config{Workers: 1, Queue: 1})
	// Occupy the single worker and fill the one-slot backlog directly.
	release := make(chan struct{})
	running := make(chan struct{})
	if err := e.srv.pool.Submit(func() { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := e.srv.pool.Submit(func() {}); err != nil {
		t.Fatal(err)
	}
	defer close(release)

	resp, raw := e.post(t, "/v1/sanitize?eexp=2&delta=0.5", "text/plain", e.tsv)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 should carry Retry-After")
	}
	resp2, _ := e.post(t, "/v1/jobs?eexp=2&delta=0.5", "text/plain", e.tsv)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job submit status %d, want 503", resp2.StatusCode)
	}
	// Load-shedding must not leave phantom failed jobs behind.
	if jobs := e.srv.jobs.List(); len(jobs) != 0 {
		t.Fatalf("rejected submissions must leave no jobs, got %v", jobs)
	}
}

func TestConcurrentSanitizeRequests(t *testing.T) {
	e := newTestEnv(t, Config{Workers: 4, Queue: 64})
	const n = 16
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(seed int) {
			resp, err := http.Post(
				fmt.Sprintf("%s/v1/sanitize?eexp=2&delta=0.5&seed=%d", e.ts.URL, seed%4+1),
				"text/plain", bytes.NewReader(e.tsv))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errc <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmReSolvesReproduceRelease: with every cache that could answer a
// repeat disabled, each request of every mechanism re-runs the release from
// scratch, and the release must not depend on what the server ran before:
// three identical requests give one release digest and, for ump, one plan.
// For ump the component cache is disabled as well, so the LP itself is
// re-solved each time.
func TestWarmReSolvesReproduceRelease(t *testing.T) {
	for _, mc := range mechanismCases(t) {
		t.Run(mc.name, func(t *testing.T) {
			cfg := Config{CacheSize: -1}
			if mc.name == "ump" {
				cfg.CompCacheSize = -1
			}
			e := newTestEnv(t, cfg)
			var first sanitizeResponse
			for i := 0; i < 3; i++ {
				resp, raw := e.post(t, "/v1/sanitize?"+fmt.Sprintf(mc.query, 4), "text/tab-separated-values", e.tsv)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, raw)
				}
				out := decode[sanitizeResponse](t, raw)
				if out.Cached || out.Plan.ReusedComponents != 0 {
					t.Fatalf("request %d was served from a cache (cached %v, reused components %d)",
						i, out.Cached, out.Plan.ReusedComponents)
				}
				if i == 0 {
					first = out
					continue
				}
				if out.ReleaseDigest == "" || out.ReleaseDigest != first.ReleaseDigest {
					t.Fatalf("re-run %d released %q, first run %q", i, out.ReleaseDigest, first.ReleaseDigest)
				}
				if !slices.Equal(out.Plan.Counts, first.Plan.Counts) {
					t.Fatalf("re-run %d changed the plan counts", i)
				}
			}
			if mc.name == "ump" && len(first.Plan.Counts) == 0 {
				t.Fatal("ump response carries no plan counts")
			}
		})
	}
}
