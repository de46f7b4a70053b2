package server

// The error-envelope contract (PR 10): every handler's error path — across
// the stateless and stateful API surface — must answer with the uniform
// {error, code, status, detail?} envelope.

import (
	"encoding/json"
	"net/http"
	"testing"

	"dpslog"
)

// envelopeCase drives one handler down an error path.
type envelopeCase struct {
	name        string
	method      string
	path        string
	contentType string
	body        string
	wantStatus  int
}

// envelopeCases covers every registered handler's cheapest error path.
// Corpus "have" exists with an exhausted budget; corpus "nope" does not.
var envelopeCases = []envelopeCase{
	{"sanitize bad json", "POST", "/v1/sanitize", "application/json", "{", http.StatusBadRequest},
	{"sanitize empty log", "POST", "/v1/sanitize", "application/json", `{"options":{"epsilon":0.7,"delta":0.5}}`, http.StatusBadRequest},
	{"sanitize bad options", "POST", "/v1/sanitize", "application/json", `{"options":{"epsilon":-1},"tsv":"u\tq\thttp://u\t1\n"}`, http.StatusBadRequest},
	{"sanitize unknown mechanism", "POST", "/v1/sanitize?mechanism=quantum", "text/tab-separated-values", "u\tq\thttp://u\t1\n", http.StatusBadRequest},
	{"job submit bad json", "POST", "/v1/jobs", "application/json", "{", http.StatusBadRequest},
	{"job get unknown", "GET", "/v1/jobs/j_missing", "", "", http.StatusNotFound},
	{"lambda bad json", "POST", "/v1/lambda", "application/json", "{", http.StatusBadRequest},
	{"lambda empty log", "POST", "/v1/lambda", "application/json", `{"delta":0.5}`, http.StatusBadRequest},
	{"stats bad json", "POST", "/v1/stats", "application/json", "{", http.StatusBadRequest},
	{"stats bad tsv", "POST", "/v1/stats", "text/tab-separated-values", "not\ttsv\n", http.StatusBadRequest},
	{"corpus put bad name", "PUT", "/v1/corpora/-bad-", "text/tab-separated-values", "u\tq\thttp://u\t1\n", http.StatusBadRequest},
	{"corpus put empty", "PUT", "/v1/corpora/fresh", "text/tab-separated-values", "", http.StatusBadRequest},
	{"corpus put bad format", "PUT", "/v1/corpora/fresh?format=csv", "text/plain", "u\tq\thttp://u\t1\n", http.StatusBadRequest},
	{"corpus get unknown", "GET", "/v1/corpora/nope", "", "", http.StatusNotFound},
	{"corpus delete unknown", "DELETE", "/v1/corpora/nope", "", "", http.StatusNotFound},
	{"corpus sanitize unknown", "POST", "/v1/corpora/nope/sanitize", "application/json", `{"options":{"epsilon":0.7,"delta":0.5}}`, http.StatusNotFound},
	{"corpus sanitize bad json", "POST", "/v1/corpora/have/sanitize", "application/json", "{", http.StatusBadRequest},
	{"corpus sanitize over budget", "POST", "/v1/corpora/have/sanitize", "application/json", `{"options":{"epsilon":0.7,"delta":0.5,"seed":99}}`, http.StatusTooManyRequests},
	{"corpus sanitize bad version", "POST", "/v1/corpora/have/sanitize?version=beef", "application/json", `{"options":{"epsilon":0.7,"delta":0.5}}`, http.StatusNotFound},
	{"corpus budget unknown", "GET", "/v1/corpora/nope/budget", "", "", http.StatusNotFound},
	{"corpus budget bad version", "GET", "/v1/corpora/have/budget?version=beef", "", "", http.StatusNotFound},
	{"corpus releases unknown", "GET", "/v1/corpora/nope/releases", "", "", http.StatusNotFound},
	{"corpus releases bad version", "GET", "/v1/corpora/have/releases?version=beef", "", "", http.StatusNotFound},
	{"corpus versions unknown", "GET", "/v1/corpora/nope/versions", "", "", http.StatusNotFound},
	{"corpus version unknown digest", "GET", "/v1/corpora/have/versions/beef", "", "", http.StatusNotFound},
	{"corpus append unknown", "POST", "/v1/corpora/nope/append", "text/tab-separated-values", "u\tq\thttp://u\t1\n", http.StatusNotFound},
	{"corpus append empty", "POST", "/v1/corpora/have/append", "text/tab-separated-values", "", http.StatusBadRequest},
	{"method not allowed", "DELETE", "/v1/sanitize", "", "", http.StatusMethodNotAllowed},
	{"corpus method not allowed", "PUT", "/v1/corpora/have/append", "", "", http.StatusMethodNotAllowed},
	{"unknown endpoint", "GET", "/v1/nope", "", "", http.StatusNotFound},
}

// seedEnvelopeEnv stores corpus "have" with a budget no single release can
// cover, so the over-budget path trips on the first charge. The budget must
// be non-zero: zero fields would be replaced by the serving defaults.
func seedEnvelopeEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	cfg.DataDir = t.TempDir()
	cfg.Budget = dpslog.Budget{Epsilon: 0.01, Delta: 0.01}
	e := newTestEnv(t, cfg)
	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/have", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("seed corpus: %d %s", resp.StatusCode, raw)
	}
	return e
}

// TestErrorEnvelopeSweep drives every handler's error path and requires
// the uniform envelope: non-empty error, a stable code, and a status that
// echoes the HTTP status line.
func TestErrorEnvelopeSweep(t *testing.T) {
	e := seedEnvelopeEnv(t, Config{})
	for _, tc := range envelopeCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := e.do(t, tc.method, tc.path, tc.contentType, []byte(tc.body))
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			var env struct {
				Error  string          `json:"error"`
				Code   string          `json:"code"`
				Status int             `json:"status"`
				Detail json.RawMessage `json:"detail"`
			}
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("body is not the envelope: %v: %s", err, raw)
			}
			if env.Error == "" || env.Code == "" {
				t.Fatalf("envelope missing error/code: %s", raw)
			}
			if env.Status != resp.StatusCode {
				t.Fatalf("envelope status %d != HTTP %d", env.Status, resp.StatusCode)
			}
			if tc.wantStatus == http.StatusTooManyRequests {
				if env.Code != "over_budget" || len(env.Detail) == 0 {
					t.Fatalf("429 must carry over_budget detail: %s", raw)
				}
			}
		})
	}
}
