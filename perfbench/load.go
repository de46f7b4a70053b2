package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dpslog/internal/mechanism"
)

// Op classes. A release is a corpus release: a sanitize of a stored
// corpus, charged to its privacy ledger.
const (
	classPut     = "put"     // PUT /v1/corpora/{name}
	classAppend  = "append"  // POST /v1/corpora/{name}/append
	classRelease = "release" // POST /v1/corpora/{name}/sanitize
)

// op is one request of a workload and, once served, its outcome.
type op struct {
	class       string
	method      string
	path        string
	contentType string
	body        []byte
	corpus      string
	opts        mechanism.Options // release options
	expect      int               // expected status
	lane        int               // the closed-loop client that sends it
	firstOfVer  bool              // first release of its objective on a freshly appended version

	res result
}

// result is what the server answered.
type result struct {
	done    bool
	status  int
	err     error
	latency time.Duration
	resp    served
}

// served holds the response fields the checks read.
type served struct {
	ReleaseDigest string          `json:"release_digest"`
	Digest        string          `json:"digest"`
	Mechanism     string          `json:"mechanism"`
	Version       json.RawMessage `json:"version"`
	Plan          struct {
		Kind             string  `json:"kind"`
		OutputSize       int     `json:"output_size"`
		Objective        float64 `json:"objective"`
		Components       int     `json:"components"`
		ReusedComponents int     `json:"reused_components"`
		Counts           []int   `json:"counts"`
	} `json:"plan"`
	// Budget is the corpus version's accounting snapshot (budget probes
	// and corpus releases).
	Budget struct {
		Spent struct {
			E float64 `json:"epsilon"`
			D float64 `json:"delta"`
		} `json:"spent"`
	} `json:"budget"`
}

// versionDigest is the corpus version a release was computed from.
func (s *served) versionDigest() string {
	var d string
	if json.Unmarshal(s.Version, &d) == nil {
		return d
	}
	return ""
}

// appendedVersion is the digest of the version an append created.
func (s *served) appendedVersion() string {
	var v struct {
		Digest string `json:"digest"`
	}
	if json.Unmarshal(s.Version, &v) == nil {
		return v.Digest
	}
	return ""
}

// newClient returns an HTTP client limited to n connections to the server:
// the load generator never holds more connections than clients.
func newClient(n int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = n
	tr.MaxIdleConnsPerHost = n
	tr.DisableCompression = true
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// do sends one op and records its outcome.
func do(ctx context.Context, client *http.Client, base string, o *op) {
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		o.res = result{done: true, err: err}
		return
	}
	if o.contentType != "" {
		req.Header.Set("Content-Type", o.contentType)
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		o.res = result{done: true, err: err, latency: time.Since(start)}
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.res = result{done: true, status: resp.StatusCode, err: err, latency: time.Since(start)}
	if err == nil && resp.StatusCode/100 == 2 {
		if jerr := json.Unmarshal(body, &o.res.resp); jerr != nil {
			o.res.err = fmt.Errorf("decode %s %s response: %w", o.method, o.path, jerr)
		}
	}
}

// ok reports whether the op's outcome is the expected one.
func (o *op) ok() bool {
	return o.res.done && o.res.err == nil && o.res.status == o.expect
}

// runClosed drives each lane from its own client goroutine, sending a
// lane's next op only after the previous one completed, until the
// deadline. It returns the ops issued per lane and the elapsed time from
// the start to the last completion.
func runClosed(ctx context.Context, client *http.Client, base string, lanes [][]*op, d time.Duration) ([][]*op, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	issued := make([][]*op, len(lanes))
	var wg sync.WaitGroup
	for i, lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range lane {
				if !time.Now().Before(deadline) {
					return
				}
				do(ctx, client, base, o)
				issued[i] = append(issued[i], o)
			}
		}()
	}
	wg.Wait()
	return issued, time.Since(start)
}

// runSequential sends ops one after another (set-up requests).
func runSequential(ctx context.Context, client *http.Client, base string, ops []*op) error {
	for _, o := range ops {
		do(ctx, client, base, o)
		if !o.ok() {
			return fmt.Errorf("set-up %s %s: status %d (want %d), err %v", o.method, o.path, o.res.status, o.expect, o.res.err)
		}
	}
	return nil
}
