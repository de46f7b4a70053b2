package server

// The continual-release API surface (PR 10): POST append creating corpus
// versions, the versions endpoints, ?version= resolution on sanitize and
// budget reads, per-version spend isolation across appends and restarts,
// and the Content-Type negotiation of raw upload bodies.

import (
	"net/http"
	"strings"
	"testing"
)

// appendDelta is a small TSV delta: one brand-new user pair plus extra
// count on a pair that may or may not exist in the base corpus — either
// way the fold strictly grows the mass, so the digest must change.
var appendDelta = []byte("newuserA\tnewquery\thttp://new.example\t3\nnewuserB\tnewquery\thttp://new.example\t2\n")

func TestCorpusAppendCreatesVersions(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), Budget: budgetFor(8)})

	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, raw)
	}
	base := decode[corpusMetaJSON](t, raw)

	// Append: a new immutable version with its own digest.
	resp, raw = e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", appendDelta)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, raw)
	}
	app := decode[corpusAppendResponse](t, raw)
	if app.Version.Seq != 2 || app.Version.Parent != base.Digest || app.Digest == base.Digest {
		t.Fatalf("append version %+v (base %s)", app.Version, base.Digest)
	}
	if app.TouchedUsers != 2 {
		t.Fatalf("touched users %d, want 2", app.TouchedUsers)
	}
	if app.Budget.Spent.Epsilon != 0 || app.Budget.Releases != 0 {
		t.Fatalf("new version should start with a fresh budget: %+v", app.Budget)
	}

	// The corpus read now carries the chain, base first.
	_, raw = e.get(t, "/v1/corpora/c")
	meta := decode[corpusMetaJSON](t, raw)
	if len(meta.Versions) != 2 || meta.Versions[0].Digest != base.Digest || meta.Versions[1].Digest != app.Digest {
		t.Fatalf("versions[] %+v", meta.Versions)
	}
	if meta.Digest != app.Digest {
		t.Fatalf("latest digest %s, want %s", meta.Digest, app.Digest)
	}

	// The dedicated versions endpoints agree.
	resp, raw = e.get(t, "/v1/corpora/c/versions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versions list: %d %s", resp.StatusCode, raw)
	}
	type versionsResp struct {
		Latest   string `json:"latest"`
		Versions []struct {
			Digest string `json:"digest"`
			Seq    int    `json:"seq"`
		} `json:"versions"`
	}
	vl := decode[versionsResp](t, raw)
	if vl.Latest != app.Digest || len(vl.Versions) != 2 {
		t.Fatalf("versions list %+v", vl)
	}
	resp, raw = e.get(t, "/v1/corpora/c/versions/"+base.Digest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version get: %d %s", resp.StatusCode, raw)
	}
	type versionResp struct {
		Latest  bool       `json:"latest"`
		Budget  budgetJSON `json:"budget"`
		Version struct {
			Digest string `json:"digest"`
			Seq    int    `json:"seq"`
		} `json:"version"`
	}
	vg := decode[versionResp](t, raw)
	if vg.Latest || vg.Version.Digest != base.Digest || vg.Version.Seq != 1 {
		t.Fatalf("base version %+v", vg)
	}
	resp, _ = e.get(t, "/v1/corpora/c/versions/deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus version digest: %d", resp.StatusCode)
	}

	// Sanitize the latest (default): charged against the new digest.
	resp, raw = e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sanitize latest: %d %s", resp.StatusCode, raw)
	}
	latestRel := decode[corpusSanitizeResponse](t, raw)
	if latestRel.Version != app.Digest || latestRel.Digest != app.Digest {
		t.Fatalf("latest release version %s / digest %s, want %s", latestRel.Version, latestRel.Digest, app.Digest)
	}

	// Sanitize the base by reference: charged against the base digest,
	// independent of the latest version's spend.
	resp, raw = e.post(t, "/v1/corpora/c/sanitize?version="+base.Digest, "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sanitize ?version=: %d %s", resp.StatusCode, raw)
	}
	baseRel := decode[corpusSanitizeResponse](t, raw)
	if baseRel.Version != base.Digest || baseRel.Digest != base.Digest {
		t.Fatalf("base release version %s, want %s", baseRel.Version, base.Digest)
	}
	// The two releases sanitized different inputs (the appended rows can
	// legitimately contribute zero output records, so the *outputs* may
	// coincide — only the input identity is guaranteed to differ).
	if baseRel.InputSize == latestRel.InputSize {
		t.Fatal("releases of different versions sanitized identical inputs")
	}

	// Spend is per-digest: each version has exactly its own release.
	for _, digest := range []string{base.Digest, app.Digest} {
		_, raw = e.get(t, "/v1/corpora/c/budget?version="+digest)
		type budgetResp struct {
			Version string     `json:"version"`
			Budget  budgetJSON `json:"budget"`
		}
		b := decode[budgetResp](t, raw)
		if b.Version != digest || b.Budget.Releases != 1 {
			t.Fatalf("budget of %s: %+v", digest, b)
		}
	}
	resp, _ = e.post(t, "/v1/corpora/c/sanitize?version=deadbeef", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("sanitize bogus version: %d", resp.StatusCode)
	}

	// Append error paths: empty delta, unknown corpus.
	resp, _ = e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty append: %d", resp.StatusCode)
	}
	resp, _ = e.do(t, http.MethodPost, "/v1/corpora/nope/append", "text/tab-separated-values", appendDelta)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append to unknown corpus: %d", resp.StatusCode)
	}
}

// TestVersionsAndSpendSurviveRestart: the chain metadata, old-version
// materialization, and per-digest accounting all replay from disk, and a
// release journaled against an ancestor version stays free after both an
// append and a restart.
func TestVersionsAndSpendSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	e := newTestEnv(t, Config{DataDir: dir, Budget: budgetFor(8)})
	_, raw := e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv)
	base := decode[corpusMetaJSON](t, raw)
	// Release against v1, then append so v1 becomes an ancestor.
	resp, raw := e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 release: %d %s", resp.StatusCode, raw)
	}
	v1rel := decode[corpusSanitizeResponse](t, raw)
	_, raw = e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", appendDelta)
	app := decode[corpusAppendResponse](t, raw)

	// Restart on the same data dir.
	e2 := newTestEnv(t, Config{DataDir: dir, Budget: budgetFor(8)})
	_, raw = e2.get(t, "/v1/corpora/c")
	meta := decode[corpusMetaJSON](t, raw)
	if len(meta.Versions) != 2 || meta.Digest != app.Digest {
		t.Fatalf("post-restart chain %+v", meta.Versions)
	}
	// Replaying the v1 release is free (seq unchanged) and computed against
	// the ancestor's own data.
	resp, raw = e2.post(t, "/v1/corpora/c/sanitize?version="+base.Digest, "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart ancestor replay: %d %s", resp.StatusCode, raw)
	}
	replay := decode[corpusSanitizeResponse](t, raw)
	if replay.Release.Seq != v1rel.Release.Seq || replay.ReleaseDigest != v1rel.ReleaseDigest {
		t.Fatalf("ancestor replay diverged: %+v vs %+v", replay.Release, v1rel.Release)
	}
	if replay.Budget.Releases != 1 {
		t.Fatalf("ancestor was re-charged: %+v", replay.Budget)
	}
}

// TestUploadContentNegotiation: Content-Type selects the body format; an
// upload selecting it with ?format= is refused with 400 and a message that
// names the Content-Type values, not ingested as TSV.
func TestUploadContentNegotiation(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir()})
	aol := []byte("AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n" +
		"142\tcars\t2006-03-01\t1\tkbb.com\n" +
		"99\tnews\t2006-03-03\t2\tcnn.com\n")

	resp, raw := e.do(t, http.MethodPut, "/v1/corpora/viaheader", "application/x-aol-log", aol)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("AOL via Content-Type: %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Fatal("Content-Type negotiation must not be marked deprecated")
	}
	viaHeader := decode[corpusMetaJSON](t, raw)

	for _, req := range []struct{ method, path string }{
		{http.MethodPut, "/v1/corpora/viaquery?format=aol"},
		{http.MethodPost, "/v1/corpora/viaheader/append?format=aol"},
	} {
		resp, raw = e.do(t, req.method, req.path, "text/plain", aol)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: %d %s, want 400", req.method, req.path, resp.StatusCode, raw)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Fatalf("%s: a refused ?format= must not carry a Deprecation header", req.path)
		}
		env := decode[apiError](t, raw)
		if env.Code != "bad_request" || !strings.Contains(env.Error, "text/tab-separated-values") ||
			!strings.Contains(env.Error, "application/x-aol-log") {
			t.Fatalf("%s: envelope %+v must be bad_request naming the Content-Type values", req.path, env)
		}
	}
	if _, ok := e.srv.corpora.Meta("viaquery"); ok {
		t.Fatal("a refused ?format= upload was stored")
	}
	if m, _ := e.srv.corpora.Meta("viaheader"); m.Digest != viaHeader.Digest {
		t.Fatal("a refused ?format= append created a version")
	}

	// The negotiation applies to append too.
	more := []byte("AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n7\tmaps\t2006-04-01\t1\tmaps.example\n")
	resp, raw = e.do(t, http.MethodPost, "/v1/corpora/viaheader/append", "application/x-aol-log", more)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("AOL append: %d %s", resp.StatusCode, raw)
	}
	if app := decode[corpusAppendResponse](t, raw); app.Version.DeltaRows != 1 {
		t.Fatalf("AOL append delta %+v", app.Version)
	}
}

// TestSanitizeReusesComponentsAfterAppend: the server-wide component cache
// makes the post-append solve incremental — the second release reports
// reused component plans in its plan summary.
func TestSanitizeReusesComponentsAfterAppend(t *testing.T) {
	e := newTestEnv(t, Config{DataDir: t.TempDir(), Budget: budgetFor(8)})
	e.do(t, http.MethodPut, "/v1/corpora/c", "text/tab-separated-values", e.tsv)
	resp, raw := e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold release: %d %s", resp.StatusCode, raw)
	}
	cold := decode[corpusSanitizeResponse](t, raw)
	if cold.Plan.ReusedComponents != 0 {
		t.Fatalf("cold solve reused %d components", cold.Plan.ReusedComponents)
	}
	// Append rows that form their own new component: every original
	// component is untouched and must be served from the cache.
	e.do(t, http.MethodPost, "/v1/corpora/c/append", "text/tab-separated-values", appendDelta)
	resp, raw = e.post(t, "/v1/corpora/c/sanitize", "application/json", sanitizeBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("incremental release: %d %s", resp.StatusCode, raw)
	}
	inc := decode[corpusSanitizeResponse](t, raw)
	if inc.Plan.ReusedComponents == 0 {
		t.Fatal("post-append solve reused no component plans")
	}
	if inc.Plan.ReusedComponents >= inc.Plan.Components {
		t.Fatalf("reused %d of %d components; the appended component had nothing to reuse",
			inc.Plan.ReusedComponents, inc.Plan.Components)
	}
}
