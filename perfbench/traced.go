package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpslog"
	"dpslog/internal/corpus"
	"dpslog/internal/dp"
	"dpslog/internal/ingest"
	"dpslog/internal/ledger"
	"dpslog/internal/mechanism"
	"dpslog/internal/partition"
	"dpslog/internal/rng"
	"dpslog/internal/sampling"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// span is one timed call into a layer (or, with no parent, one request).
// Spans of one request share Req.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a request's root span
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
	Failed bool          `json:"failed,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name's prefix: the internal module the call entered.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps every span in memory; they are written out when the run
// ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, err error) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Failed = err != nil
}

// solveRec describes one UMP solve of the traced run.
type solveRec struct {
	kind  mechanism.Objective
	dur   time.Duration
	plan  *ump.Plan
	timed bool
}

// tracedRelease is the traced run's result for one release.
type tracedRelease struct {
	digest     string
	components int
	// pre is the preprocessed version the plan indexes, against which the
	// served plan is re-audited (nil for aggregate mechanisms).
	pre *searchlog.Log
}

// replayer re-executes a workload's served requests in-process, through
// the layers' public calls, with spans around each call.
type replayer struct {
	t     *tracer
	store *corpus.Store
	led   *ledger.Ledger
	comp  *ump.ComponentCache

	mu       sync.Mutex
	solves   []solveRec
	charges  int // ledger charge calls in timed requests
	charged  int // of which spent new budget
	appendW  int64
	appendIn int64
	ingestB  int64
	ingestT  time.Duration
	problems []string
	// timedReqs marks the request ids of the timed section.
	timedReqs map[int]bool
}

func newReplayer(dir string, budget ledger.Budget) (*replayer, error) {
	store, err := corpus.Open(filepath.Join(dir, "corpora"))
	if err != nil {
		return nil, err
	}
	led, err := ledger.Open(filepath.Join(dir, "ledger.jsonl"), budget)
	if err != nil {
		return nil, err
	}
	return &replayer{
		t:         &tracer{epoch: time.Now()},
		store:     store,
		led:       led,
		comp:      ump.NewComponentCache(0),
		timedReqs: map[int]bool{},
	}, nil
}

func (r *replayer) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// call runs fn inside a span named name under parent.
func (r *replayer) call(req, parent int, name string, fn func() error) error {
	id := r.t.begin(req, parent, name)
	err := fn()
	r.t.end(id, err)
	return err
}

// replay re-executes the set-up ops, then the timed ops lane by lane; with
// workers > 1 distinct lanes run concurrently (no lane appends to a corpus
// another lane reads).
func (r *replayer) replay(setup []*op, lanes [][]*op, workers int) {
	req := 0
	for _, o := range setup {
		r.exec(o, req, false)
		req++
	}
	ids := make([][]int, len(lanes))
	for i, lane := range lanes {
		for range lane {
			ids[i] = append(ids[i], req)
			r.timedReqs[req] = true
			req++
		}
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, lane := range lanes {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			for j, o := range lane {
				r.exec(o, ids[i][j], true)
			}
		}()
	}
	wg.Wait()
}

// exec replays one op and checks it against what the server answered.
func (r *replayer) exec(o *op, req int, timed bool) {
	if !o.ok() {
		return // already counted as a failed request
	}
	root := r.t.begin(req, -1, "request."+o.class)
	var (
		rel *tracedRelease
		err error
	)
	switch o.class {
	case classPut:
		err = r.put(req, root, o)
	case classAppend:
		err = r.append(req, root, o)
	case classRelease:
		rel, err = r.release(req, root, o, timed)
	}
	r.t.end(root, err)
	if err != nil {
		r.problem("traced %s %s: %v", o.method, o.path, err)
		return
	}
	if rel != nil {
		r.checkRelease(o, rel)
	}
}

// checkRelease compares the served release with the traced one.
func (r *replayer) checkRelease(o *op, rel *tracedRelease) {
	s := &o.res.resp
	if s.ReleaseDigest != rel.digest {
		r.problem("%s %s seed %d: served release %.12s, traced %.12s", o.method, o.path, o.opts.Seed, s.ReleaseDigest, rel.digest)
	}
	if s.Mechanism == "ump" && s.Plan.Components != rel.components {
		r.problem("%s %s seed %d: served %d components, traced %d", o.method, o.path, o.opts.Seed, s.Plan.Components, rel.components)
	}
	if o.firstOfVer && s.Plan.ReusedComponents != s.Plan.Components-1 {
		r.problem("%s seed %d: first release of a version reused %d of %d components, want all but one",
			o.path, o.opts.Seed, s.Plan.ReusedComponents, s.Plan.Components)
	}
	// The served plan must pass the public re-audit against the
	// preprocessed version it was computed from.
	if rel.pre != nil && s.Plan.Counts != nil {
		if err := dpslog.VerifyCounts(rel.pre, o.opts.Epsilon, o.opts.Delta, s.Plan.Counts); err != nil {
			r.problem("%s seed %d: served plan fails VerifyCounts: %v", o.path, o.opts.Seed, err)
		}
	}
}

func (r *replayer) ingestBody(req, parent int, body []byte) (*searchlog.Log, error) {
	var l *searchlog.Log
	start := time.Now()
	err := r.call(req, parent, "ingest.fold", func() error {
		var err error
		l, _, err = ingest.Ingest(bytes.NewReader(body), ingest.Config{})
		return err
	})
	r.mu.Lock()
	r.ingestB += int64(len(body))
	r.ingestT += time.Since(start)
	r.mu.Unlock()
	return l, err
}

func (r *replayer) put(req, root int, o *op) error {
	l, err := r.ingestBody(req, root, o.body)
	if err != nil {
		return err
	}
	var m corpus.Meta
	if err := r.call(req, root, "corpus.put", func() error {
		var err error
		m, err = r.store.Put(o.corpus, l)
		return err
	}); err != nil {
		return err
	}
	if o.res.resp.Digest != "" && o.res.resp.Digest != m.Digest {
		return fmt.Errorf("served corpus digest %.12s, traced %.12s", o.res.resp.Digest, m.Digest)
	}
	return nil
}

func (r *replayer) append(req, root int, o *op) error {
	delta, err := r.ingestBody(req, root, o.body)
	if err != nil {
		return err
	}
	var v corpus.Version
	before := writtenBytes()
	err = r.call(req, root, "corpus.append", func() error {
		var err error
		_, v, _, err = r.store.Append(o.corpus, delta)
		return err
	})
	written := writtenBytes() - before
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.appendW += written
	r.appendIn += int64(len(o.body))
	r.mu.Unlock()
	if want := o.res.resp.appendedVersion(); v.Digest != want {
		return fmt.Errorf("served version %.12s, traced %.12s", want, v.Digest)
	}
	return nil
}

// release replays one corpus release: the version it was computed from,
// the ledger's pre-check, the mechanism, and the charge.
func (r *replayer) release(req, root int, o *op, timed bool) (*tracedRelease, error) {
	digest := o.res.resp.versionDigest()
	var l *searchlog.Log
	if err := r.call(req, root, "corpus.get", func() error {
		var err error
		l, _, err = r.store.GetVersion(o.corpus, digest)
		return err
	}); err != nil {
		return nil, err
	}
	opts := o.opts
	m, err := mechanism.Get(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	cost := m.Cost(opts)
	key, err := releaseKey(digest, opts)
	if err != nil {
		return nil, err
	}
	if err := r.call(req, root, "ledger.check", func() error {
		return r.led.Check(digest, key, cost.Epsilon, cost.Delta)
	}); err != nil {
		return nil, err
	}
	rel := &tracedRelease{}
	if m.Name() == "ump" {
		err = r.umpRelease(req, root, l, opts, timed, rel)
	} else {
		err = r.call(req, root, "mechanism.sanitize", func() error {
			out, err := m.Sanitize(context.Background(), l, opts)
			if err == nil {
				rel.digest = out.Digest()
			}
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	var charged bool
	if err := r.call(req, root, "ledger.charge", func() error {
		var err error
		_, charged, err = r.led.Charge(o.corpus, digest, key, cost.Epsilon, cost.Delta)
		return err
	}); err != nil {
		return nil, err
	}
	if timed {
		r.mu.Lock()
		r.charges++
		if charged {
			r.charged++
		}
		r.mu.Unlock()
	}
	return rel, nil
}

// umpRelease is the paper's pipeline, layer by layer, exactly as the
// server runs it: preprocess, solve (per connected component, through the
// shared component cache), audit, sample.
func (r *replayer) umpRelease(req, root int, l *searchlog.Log, opts mechanism.Options, timed bool, rel *tracedRelease) error {
	var pre *searchlog.Log
	_ = r.call(req, root, "searchlog.preprocess", func() error {
		pre, _ = searchlog.Preprocess(l)
		return nil
	})
	_ = r.call(req, root, "partition.decompose", func() error {
		partition.Decompose(pre)
		return nil
	})
	params := dp.Params{Eps: opts.Epsilon, Delta: opts.Delta}
	uopts := ump.Options{Comp: r.comp, Parallelism: 1, Solver: opts.Solver, NoBoxConstraint: opts.NoBoxConstraint}
	var plan *ump.Plan
	start := time.Now()
	name := "ump.output_size"
	if opts.Objective == mechanism.ObjectiveDiversity {
		name = "ump.diversity"
	}
	if err := r.call(req, root, name, func() error {
		var err error
		switch opts.Objective {
		case mechanism.ObjectiveOutputSize:
			plan, err = ump.MaxOutputSize(pre, params, uopts)
		case mechanism.ObjectiveDiversity:
			plan, err = ump.Diversity(pre, params, uopts)
		default:
			err = fmt.Errorf("objective %v is not traced", opts.Objective)
		}
		return err
	}); err != nil {
		return err
	}
	dur := time.Since(start)
	if err := r.call(req, root, "dp.audit", func() error {
		return dp.VerifyLog(pre, params, plan.Counts)
	}); err != nil {
		return err
	}
	var out *searchlog.Log
	if err := r.call(req, root, "sampling.output", func() error {
		var err error
		out, err = sampling.Output(rng.New(opts.Seed), pre, plan.Counts)
		return err
	}); err != nil {
		return err
	}
	_ = r.call(req, root, "searchlog.output_digest", func() error {
		rel.digest = out.Digest()
		return nil
	})
	rel.components, rel.pre = plan.Components, pre
	r.mu.Lock()
	r.solves = append(r.solves, solveRec{kind: opts.Objective, dur: dur, plan: plan, timed: timed})
	r.mu.Unlock()
	return nil
}

// close releases the journal and the store's files.
func (r *replayer) close() error {
	return r.led.Close()
}

// writtenBytes is the process's cumulative write(2) byte count.
func writtenBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// writeSpans writes every span as one JSON line, with its self time
// (duration minus the time its children cover).
func (t *tracer) writeSpans(path string) error {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			span
			SelfNS time.Duration `json:"self_ns"`
		}{s, s.dur() - child[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coverage is the share of the timed requests' traced wall time that
// their layer spans cover.
func (r *replayer) coverage() float64 {
	var total, covered time.Duration
	for _, s := range r.t.spans {
		if !r.timedReqs[s.Req] {
			continue
		}
		if s.Parent < 0 {
			total += s.dur()
		} else if r.t.spans[s.Parent].Parent < 0 {
			covered += s.dur()
		}
	}
	if total == 0 {
		return 1
	}
	return float64(covered) / float64(total)
}

// layerDurations lists the durations of the timed spans named name.
func (r *replayer) layerDurations(name string) []float64 {
	var out []float64
	for _, s := range r.t.spans {
		if s.Name == name && r.timedReqs[s.Req] {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// requestDurations lists the traced wall time of timed requests of a class.
func (r *replayer) requestDurations(class string) []float64 {
	return r.layerDurations("request." + class)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// relTolEqual compares two accounted amounts up to float summation order.
func relTolEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
}
