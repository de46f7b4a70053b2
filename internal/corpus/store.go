// Package corpus is the disk-backed, multi-tenant corpus store behind
// slserve's /v1/corpora endpoints: a search log is uploaded once under a
// name and referenced forever, so sanitization requests carry options only
// instead of re-uploading (and the server re-parsing) megabyte TSV bodies.
//
// Each corpus is one canonical TSV file under the store directory, written
// atomically (temp file + fsync + rename) so a crash can never leave a
// half-written corpus behind. The store keeps one entry per corpus in
// memory: the parsed Log of the latest version, its version chain and its
// on-disk size. Every other version is rebuilt from the latest on demand
// (see version.go) and never kept.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"dpslog/internal/searchlog"
)

// ErrNotFound reports a name with no stored corpus.
var ErrNotFound = errors.New("corpus: not found")

// nameRE constrains corpus names to one safe path segment: it must never
// be possible to traverse out of the store directory via a crafted name.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// deltaNameRE matches the stem of an append delta file (name.d<seq>.tsv),
// which the store-directory scan must not mistake for a corpus of its own.
// The ".d<seq>" suffix is consequently reserved: ValidName refuses it.
var deltaNameRE = regexp.MustCompile(`\.d[0-9]+$`)

// ValidName reports whether name is an acceptable corpus name: 1–64 chars,
// alphanumeric plus ._-, starting alphanumeric, and not ending in the
// ".d<seq>" suffix reserved for append delta files.
func ValidName(name string) bool {
	return nameRE.MatchString(name) && !strings.Contains(name, "..") &&
		!deltaNameRE.MatchString(name)
}

// Meta describes one stored corpus.
type Meta struct {
	Name string `json:"name"`
	// Digest is the hex SHA-256 of the canonical TSV form — the identity
	// the plan cache and the privacy ledger key on.
	Digest   string    `json:"digest"`
	Size     int       `json:"size"` // total click-count mass
	NumUsers int       `json:"num_users"`
	NumPairs int       `json:"num_pairs"`
	Bytes    int64     `json:"bytes"` // on-disk TSV size
	Uploaded time.Time `json:"uploaded"`
}

// Store is the corpus registry. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	dir     string
	corpora map[string]*stored
}

// stored is the in-memory state of one corpus.
type stored struct {
	log      *searchlog.Log // the latest version
	versions []Version      // append-only chain, base first
	bytes    int64          // on-disk size of the latest version's TSV
}

// meta derives the corpus metadata from the chain head.
func (c *stored) meta(name string) Meta {
	head := c.versions[len(c.versions)-1]
	return Meta{
		Name:     name,
		Digest:   head.Digest,
		Size:     head.Size,
		NumUsers: head.NumUsers,
		NumPairs: head.NumPairs,
		Bytes:    c.bytes,
		Uploaded: head.Created.UTC(),
	}
}

// Open creates (if needed) and loads the store directory, parsing every
// stored corpus to rebuild the digest index.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: create store dir: %w", err)
	}
	s := &Store{dir: dir, corpora: make(map[string]*stored)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: scan store dir: %w", err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".tsv")
		if e.IsDir() || !ok || !ValidName(name) {
			// Leftovers are not corpora: temp files, chain metadata, and
			// append delta files (whose ".d<seq>" stem ValidName refuses).
			continue
		}
		if err := s.load(name, e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// load parses one stored corpus file into the index. The stored file is
// canonical TSV, so the corpus digest is by definition the SHA-256 of the
// file's bytes: load hashes the stream while parsing it (one pass) instead
// of re-serializing the parsed log afterwards.
func (s *Store) load(name string, e os.DirEntry) error {
	path := s.path(name)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("corpus: open %s: %w", path, err)
	}
	defer f.Close()
	h := sha256.New()
	l, err := searchlog.ReadTSV(io.TeeReader(f, h))
	if err != nil {
		return fmt.Errorf("corpus: parse %s: %w", path, err)
	}
	info, err := e.Info()
	if err != nil {
		return fmt.Errorf("corpus: stat %s: %w", path, err)
	}
	// Align content with the recorded version chain (heal a crashed append,
	// or synthesize the single-version chain of a legacy corpus).
	c, err := s.reconcile(name, l, hex.EncodeToString(h.Sum(nil)), info.Size(), info.ModTime())
	if err != nil {
		return err
	}
	s.corpora[name] = c
	return nil
}

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name+".tsv")
}

// Put stores l under name, replacing any previous corpus of that name. The
// TSV is written to a temp file, fsynced and renamed into place, so readers
// (and crashes) only ever observe complete corpora.
func (s *Store) Put(name string, l *searchlog.Log) (Meta, error) {
	if !ValidName(name) {
		return Meta{}, fmt.Errorf("corpus: invalid name %q (want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric)", name)
	}
	if l.Size() == 0 {
		return Meta{}, errors.New("corpus: refusing to store an empty log")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, "."+name+".tmp-*")
	if err != nil {
		return Meta{}, fmt.Errorf("corpus: create temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// Streaming digest: the canonical rows are hashed as they are written,
	// so storing a corpus costs exactly one serialization pass — no
	// post-hoc l.Digest() re-walk of a multi-hundred-MB log.
	h := sha256.New()
	if _, err := searchlog.WriteTSV(io.MultiWriter(tmp, h), l); err != nil {
		tmp.Close()
		return Meta{}, fmt.Errorf("corpus: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return Meta{}, fmt.Errorf("corpus: sync %s: %w", name, err)
	}
	info, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return Meta{}, fmt.Errorf("corpus: stat %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return Meta{}, fmt.Errorf("corpus: close %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), s.path(name)); err != nil {
		return Meta{}, fmt.Errorf("corpus: publish %s: %w", name, err)
	}
	syncDir(s.dir)
	// A PUT is a full replacement, not an append: the version chain resets
	// to a single base version and any prior deltas are orphaned. (Budget
	// accounting is digest-keyed in the ledger and survives untouched.)
	if old, ok := s.corpora[name]; ok {
		s.removeChainFiles(name, old.versions)
	}
	c := &stored{
		log:      l,
		versions: []Version{baseVersion(l, hex.EncodeToString(h.Sum(nil)), time.Now())},
		bytes:    info.Size(),
	}
	if err := s.writeVersions(name, c.versions); err != nil {
		return Meta{}, err
	}
	s.corpora[name] = c
	return c.meta(name), nil
}

// syncDir makes a rename durable; not all platforms support fsync on a
// directory handle, so failure is ignored.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		//slvet:ignore deferclose directory fsync is best-effort by contract: not all platforms support fsync on a directory handle
		d.Sync()
		d.Close()
	}
}

// Meta returns the metadata for name without touching the parsed log.
func (s *Store) Meta(name string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.corpora[name]
	if !ok {
		return Meta{}, false
	}
	return c.meta(name), true
}

// Delete removes a stored corpus. Privacy accounting lives in the ledger,
// keyed by digest, and deliberately survives deletion: re-uploading the
// same data resumes the same budget.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.corpora[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := os.Remove(s.path(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("corpus: delete %s: %w", name, err)
	}
	s.removeChainFiles(name, c.versions)
	delete(s.corpora, name)
	return nil
}

// List returns the metadata of every stored corpus, sorted by name.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.corpora))
	for name, c := range s.corpora {
		out = append(out, c.meta(name))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
