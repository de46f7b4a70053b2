package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dpslog/internal/ingest"
	"dpslog/internal/searchlog"
	"dpslog/internal/server"
)

// statusWriter records the status code the server answered with.
type statusWriter struct {
	http.ResponseWriter
	code *atomic.Int64
}

func (w statusWriter) WriteHeader(code int) {
	w.code.Store(int64(code))
	w.ResponseWriter.WriteHeader(code)
}

// TestPushNegotiatesFormat: push uploads each row format to a live server
// and the stored corpus is the one the local reader parses from the same
// bytes, so the server read the body in the format push declared.
func TestPushNegotiatesFormat(t *testing.T) {
	srv, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var code atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(statusWriter{w, &code}, r)
	}))
	defer ts.Close()

	aol := aolHeader +
		"7\tcars\t2006-03-01 00:00:00\t1\tkbb.com\n" +
		"7\tcars\t2006-03-02 00:00:00\t1\tkbb.com\n" +
		"9\tweather\t2006-03-02 00:00:00\t\t\n" + // clickless: dropped
		"9\tnews\t2006-03-03 00:00:00\t2\tcnn.com\n"
	tsv := "7\tcars\tkbb.com\t2\n9\tnews\tcnn.com\t1\n"
	for _, tc := range []struct {
		name   string
		format ingest.Format
		body   string
		length int64
		read   func(string) (*searchlog.Log, error)
	}{
		{"aol", ingest.FormatAOL, aol, int64(len(aol)), func(s string) (*searchlog.Log, error) {
			return searchlog.ReadAOL(strings.NewReader(s))
		}},
		{"tsv-chunked", ingest.FormatTSV, tsv, -1, func(s string) (*searchlog.Log, error) {
			return searchlog.ReadTSV(strings.NewReader(s))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.read(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := push(ts.URL, tc.name, tc.format, strings.NewReader(tc.body), tc.length)
			if err != nil {
				t.Fatal(err)
			}
			if c := code.Load(); c != http.StatusCreated {
				t.Fatalf("PUT status %d, want 201: %s", c, raw)
			}
			var meta struct {
				Digest string `json:"digest"`
				Size   int    `json:"size"`
			}
			if err := json.Unmarshal(raw, &meta); err != nil {
				t.Fatalf("%v: %s", err, raw)
			}
			if meta.Digest != want.Digest() || meta.Size != want.Size() {
				t.Fatalf("stored digest %s size %d, want %s size %d", meta.Digest, meta.Size, want.Digest(), want.Size())
			}
		})
	}
}
