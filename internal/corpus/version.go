package corpus

// The append-only version chain of a corpus. A corpus starts life as a
// single base version (a PUT); every append folds a delta histogram into
// the latest version via searchlog.BuildFromUserCounts and produces a new
// immutable version with its own digest. Three kinds of file make up a
// versioned corpus on disk:
//
//	name.tsv           the materialized LATEST version (canonical TSV) —
//	                   the same file a pre-version store wrote, so old
//	                   stores open new directories and vice versa
//	name.d<seq>.tsv    the append delta that produced version <seq>
//	name.versions.json the chain metadata (digest, parent, rows, created)
//
// Every write is temp + fsync + rename. An append commits in the order
// delta → versions.json → name.tsv, so a crash can strand the store in
// exactly one recoverable intermediate state: the chain already names a
// version whose materialization never landed. Open detects this (the
// latest file hashes to an ancestor, not the chain head) and self-heals by
// folding the recorded deltas forward. If name.tsv matches nothing in the
// chain at all, the TSV content wins — the chain is reset to a single
// base version — because the corpus a reader can actually parse must never
// disagree with the versions the API reports.
//
// Old versions are materialized on every read by subtraction: version k's
// histogram is the latest histogram minus the deltas k+1..n, which is
// exact because counts are non-negative and merging is addition. Only the
// latest version is kept in memory. The recorded digest of the target
// version is re-verified after every materialization, so a corrupt delta
// file can never silently serve wrong bytes under a trusted digest.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dpslog/internal/searchlog"
)

// ErrVersionNotFound reports a digest that names no version of the corpus.
var ErrVersionNotFound = errors.New("corpus: version not found")

// ErrEmptyDelta reports an append whose delta contains no positive counts.
var ErrEmptyDelta = errors.New("corpus: append delta is empty")

// Version describes one immutable version of a corpus. The chain is
// linear: each version's Parent is the digest of the version it was
// appended onto ("" for the base version).
type Version struct {
	// Digest is the hex SHA-256 of this version's canonical TSV — the
	// identity the plan cache and the privacy ledger key on. Appending
	// never reuses a digest, so each version's releases are charged
	// independently under sequential composition.
	Digest string `json:"digest"`
	Parent string `json:"parent,omitempty"`
	// Seq is the 1-based position in the chain (base version is 1).
	Seq int `json:"seq"`
	// Rows counts the canonical TSV rows (non-zero user-pair cells) of the
	// materialized version; DeltaRows and DeltaUsers describe the append
	// delta that produced it (zero for the base version).
	Rows       int       `json:"rows"`
	DeltaRows  int       `json:"delta_rows,omitempty"`
	DeltaUsers int       `json:"delta_users,omitempty"`
	Size       int       `json:"size"` // total click-count mass
	NumUsers   int       `json:"num_users"`
	NumPairs   int       `json:"num_pairs"`
	Created    time.Time `json:"created"`
}

// versionsFile is the on-disk shape of name.versions.json.
type versionsFile struct {
	V        int       `json:"v"`
	Versions []Version `json:"versions"`
}

func (s *Store) versionsPath(name string) string {
	return filepath.Join(s.dir, name+".versions.json")
}

func (s *Store) deltaPath(name string, seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.d%d.tsv", name, seq))
}

// writeAtomic writes the bytes produced by fill to path via a temp file in
// the store directory, fsynced and renamed into place.
func (s *Store) writeAtomic(path string, fill func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(s.dir, ".corpus.tmp-*")
	if err != nil {
		return 0, fmt.Errorf("corpus: create temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := fill(tmp); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("corpus: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("corpus: sync %s: %w", path, err)
	}
	info, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, fmt.Errorf("corpus: stat %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("corpus: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("corpus: publish %s: %w", path, err)
	}
	syncDir(s.dir)
	return info.Size(), nil
}

// writeVersions persists the chain metadata atomically.
func (s *Store) writeVersions(name string, vs []Version) error {
	_, err := s.writeAtomic(s.versionsPath(name), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(versionsFile{V: 1, Versions: vs})
	})
	return err
}

// readVersions loads the chain metadata; a missing file returns (nil, nil)
// — the caller synthesizes a single-version chain from the TSV.
func (s *Store) readVersions(name string) ([]Version, error) {
	raw, err := os.ReadFile(s.versionsPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: read versions of %s: %w", name, err)
	}
	var f versionsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("corpus: parse versions of %s: %w", name, err)
	}
	return f.Versions, nil
}

// baseVersion synthesizes the single-entry chain of an unversioned corpus.
func baseVersion(l *searchlog.Log, digest string, created time.Time) Version {
	return Version{
		Digest:   digest,
		Seq:      1,
		Rows:     l.NumTriplets(),
		Size:     l.Size(),
		NumUsers: l.NumUsers(),
		NumPairs: l.NumPairs(),
		Created:  created.UTC(),
	}
}

// removeChainFiles deletes a corpus's delta files and chain metadata,
// best-effort (used by Put's chain reset and Delete).
func (s *Store) removeChainFiles(name string, vs []Version) {
	for _, v := range vs {
		if v.Seq > 1 {
			os.Remove(s.deltaPath(name, v.Seq))
		}
	}
	os.Remove(s.versionsPath(name))
}

// reconcile aligns a loaded corpus's TSV content with its recorded chain.
// It is called under the store lock at Open time, after name.tsv parsed to
// (l, digest) of the given byte size. It returns the corpus entry: the
// chain plus the (possibly healed) latest log and its byte size.
func (s *Store) reconcile(name string, l *searchlog.Log, digest string, bytes int64, mod time.Time) (*stored, error) {
	vs, err := s.readVersions(name)
	if err != nil {
		return nil, err
	}
	if len(vs) == 0 {
		// Legacy (pre-version) corpus: a single base version, synthesized in
		// memory only — opening a store must not write to it.
		return &stored{log: l, versions: []Version{baseVersion(l, digest, mod)}, bytes: bytes}, nil
	}
	if vs[len(vs)-1].Digest == digest {
		return &stored{log: l, versions: vs, bytes: bytes}, nil
	}
	// The latest file does not match the chain head. If it matches an
	// ancestor, an append crashed between publishing the chain and
	// materializing the new latest: fold the recorded deltas forward and
	// rewrite name.tsv (self-heal).
	at := -1
	for i := range vs {
		if vs[i].Digest == digest {
			at = i
			break
		}
	}
	if at >= 0 {
		counts := l.UserCounts()
		healed := l
		ok := true
		for i := at + 1; i < len(vs); i++ {
			delta, derr := s.readDelta(name, vs[i].Seq)
			if derr != nil {
				ok = false
				break
			}
			addCounts(counts, delta)
			next, berr := searchlog.BuildFromUserCounts(counts)
			if berr != nil || next.Digest() != vs[i].Digest {
				ok = false
				break
			}
			healed = next
		}
		if ok {
			n, werr := s.writeAtomic(s.path(name), func(w io.Writer) error {
				_, e := searchlog.WriteTSV(w, healed)
				return e
			})
			if werr != nil {
				return nil, werr
			}
			return &stored{log: healed, versions: vs, bytes: n}, nil
		}
		// Deltas missing or corrupt: the content we can parse wins — truncate
		// the chain at the version the TSV actually is.
		trunc := append([]Version(nil), vs[:at+1]...)
		if werr := s.writeVersions(name, trunc); werr != nil {
			return nil, werr
		}
		return &stored{log: l, versions: trunc, bytes: bytes}, nil
	}
	// The TSV matches nothing in the chain — it was replaced out-of-band.
	// Content wins: reset to a single base version.
	s.removeChainFiles(name, vs)
	reset := []Version{baseVersion(l, digest, mod)}
	if werr := s.writeVersions(name, reset); werr != nil {
		return nil, werr
	}
	return &stored{log: l, versions: reset, bytes: bytes}, nil
}

// readDelta parses the delta file that produced version seq.
func (s *Store) readDelta(name string, seq int) (*searchlog.Log, error) {
	f, err := os.Open(s.deltaPath(name, seq))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return searchlog.ReadTSV(f)
}

// addCounts folds a delta log's histogram into counts in place.
func addCounts(counts map[string]map[searchlog.PairKey]int, delta *searchlog.Log) {
	for id, m := range delta.UserCounts() {
		dst := counts[id]
		if dst == nil {
			counts[id] = m
			continue
		}
		for key, c := range m {
			dst[key] += c
		}
	}
}

// subCounts removes a delta log's histogram from counts in place. It is
// exact for histograms built by addition: every count stays ≥ 0 and cells
// that return to zero are dropped by BuildFromUserCounts.
func subCounts(counts map[string]map[searchlog.PairKey]int, delta *searchlog.Log) error {
	for id, m := range delta.UserCounts() {
		dst := counts[id]
		if dst == nil {
			return fmt.Errorf("corpus: delta user %q absent from descendant version", id)
		}
		for key, c := range m {
			if dst[key] < c {
				return fmt.Errorf("corpus: delta count exceeds descendant count for user %q pair (%q, %q)", id, key.Query, key.URL)
			}
			dst[key] -= c
		}
	}
	return nil
}

// Append folds delta (a parsed, non-empty log of new rows) into the latest
// version of name, producing a new immutable version. It returns the new
// latest Meta, the new Version, and the sorted external IDs of the users
// the delta touched — exactly the users whose connected components an
// incremental re-solve must treat as dirty. Appending is atomic and
// durable: a crash at any point leaves the store openable at either the
// old or the new version (see the package comment on commit order).
func (s *Store) Append(name string, delta *searchlog.Log) (Meta, Version, []string, error) {
	if delta == nil || delta.Size() == 0 {
		return Meta{}, Version{}, nil, ErrEmptyDelta
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.corpora[name]
	if !ok {
		return Meta{}, Version{}, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	counts := c.log.UserCounts()
	addCounts(counts, delta)
	merged, err := searchlog.BuildFromUserCounts(counts)
	if err != nil {
		return Meta{}, Version{}, nil, fmt.Errorf("corpus: fold append into %s: %w", name, err)
	}
	digest := merged.Digest()
	parent := c.versions[len(c.versions)-1].Digest
	if digest == parent {
		// Cannot happen for a non-empty delta (the mass strictly grows), but
		// guard it: two chain entries with one digest would break every
		// digest-keyed consumer.
		return Meta{}, Version{}, nil, fmt.Errorf("corpus: append to %s produced no change", name)
	}
	seq := len(c.versions) + 1
	touched := make([]string, 0, delta.NumUsers())
	for k := 0; k < delta.NumUsers(); k++ {
		touched = append(touched, delta.User(k).ID)
	}

	// Commit order: delta, chain, materialized latest (see package comment).
	if _, err := s.writeAtomic(s.deltaPath(name, seq), func(w io.Writer) error {
		_, e := searchlog.WriteTSV(w, delta)
		return e
	}); err != nil {
		return Meta{}, Version{}, nil, err
	}
	v := Version{
		Digest:     digest,
		Parent:     parent,
		Seq:        seq,
		Rows:       merged.NumTriplets(),
		DeltaRows:  delta.NumTriplets(),
		DeltaUsers: delta.NumUsers(),
		Size:       merged.Size(),
		NumUsers:   merged.NumUsers(),
		NumPairs:   merged.NumPairs(),
		Created:    time.Now().UTC(),
	}
	next := append(append([]Version(nil), c.versions...), v)
	if err := s.writeVersions(name, next); err != nil {
		return Meta{}, Version{}, nil, err
	}
	n, err := s.writeAtomic(s.path(name), func(w io.Writer) error {
		_, e := searchlog.WriteTSV(w, merged)
		return e
	})
	if err != nil {
		return Meta{}, Version{}, nil, err
	}
	c = &stored{log: merged, versions: next, bytes: n}
	s.corpora[name] = c
	return c.meta(name), v, touched, nil
}

// Versions returns the corpus's version chain, base first.
func (s *Store) Versions(name string) ([]Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.corpora[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return append([]Version(nil), c.versions...), nil
}

// find returns name's entry and the chain index of the version with the
// given digest ("" names the latest). Callers hold s.mu.
func (s *Store) find(name, digest string) (*stored, int, error) {
	c, ok := s.corpora[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if digest == "" {
		return c, len(c.versions) - 1, nil
	}
	for i, v := range c.versions {
		if v.Digest == digest {
			return c, i, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: %q@%s", ErrVersionNotFound, name, digest)
}

// VersionMeta returns the chain entry with the given digest ("" names the
// latest version).
func (s *Store) VersionMeta(name, digest string) (Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, at, err := s.find(name, digest)
	if err != nil {
		return Version{}, err
	}
	return c.versions[at], nil
}

// GetVersion returns the parsed log and chain entry of the version with
// the given digest ("" names the latest version). The latest is served
// from memory; an ancestor is materialized on every call by subtracting
// the deltas that came after it from the latest, then digest-verified.
func (s *Store) GetVersion(name, digest string) (*searchlog.Log, Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, at, err := s.find(name, digest)
	if err != nil {
		return nil, Version{}, err
	}
	v := c.versions[at]
	if at == len(c.versions)-1 {
		return c.log, v, nil
	}
	counts := c.log.UserCounts()
	for i := len(c.versions) - 1; i > at; i-- {
		delta, err := s.readDelta(name, c.versions[i].Seq)
		if err != nil {
			return nil, Version{}, fmt.Errorf("corpus: materialize %s@%s: %w", name, v.Digest, err)
		}
		if err := subCounts(counts, delta); err != nil {
			return nil, Version{}, fmt.Errorf("corpus: materialize %s@%s: %w", name, v.Digest, err)
		}
	}
	l, err := searchlog.BuildFromUserCounts(counts)
	if err != nil {
		return nil, Version{}, fmt.Errorf("corpus: materialize %s@%s: %w", name, v.Digest, err)
	}
	if got := l.Digest(); got != v.Digest {
		return nil, Version{}, fmt.Errorf("corpus: materialized %s@%s hashes to %s — delta files corrupt", name, v.Digest, got)
	}
	return l, v, nil
}
