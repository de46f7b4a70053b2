package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dpslog/internal/gen"
	"dpslog/internal/ledger"
	"dpslog/internal/mechanism"
	"dpslog/internal/partition"
	"dpslog/internal/rng"
	"dpslog/internal/searchlog"
)

// workload is one benchmark input: the server budget, the set-up requests
// (uploads and cache warm-up), and the timed requests of each closed-loop
// client (lane).
type workload struct {
	budget ledger.Budget
	setup  []*op
	lanes  [][]*op
}

const (
	clients = 2 // load-generator clients (connections); nproc on the reference box

	// coldCorpora is how many `small` corpora solve-cold spreads its
	// requests over.
	coldCorpora = 32
	// continualReleases is K, the UMP releases made on each appended
	// version; one zealous release follows them.
	continualReleases = 8
)

var workloadNames = []string{"solve-cold", "release-continual"}

// The corpora are fixed datasets (generator seeds 1, 2, ...); the workload
// seed draws the requests: privacy parameters, release seeds and append
// deltas. Per-seed runs then differ in what is asked of the same data, not
// in how hard one generated corpus happens to be.
func buildWorkload(name string, seed uint64, workdir string) (*workload, error) {
	switch name {
	case "solve-cold":
		return solveCold(seed)
	case "release-continual":
		return releaseContinual(seed, workdir)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func tsvBytes(l *searchlog.Log) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := searchlog.WriteTSV(&buf, l); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func putOp(name string, body []byte) *op {
	return &op{class: classPut, method: http.MethodPut, path: "/v1/corpora/" + name,
		contentType: "text/tab-separated-values", body: body, corpus: name, expect: http.StatusCreated}
}

func appendOp(name string, body []byte) *op {
	return &op{class: classAppend, method: http.MethodPost, path: "/v1/corpora/" + name + "/append",
		contentType: "text/tab-separated-values", body: body, corpus: name, expect: http.StatusOK}
}

func releaseOp(name string, opts mechanism.Options) *op {
	body, _ := json.Marshal(struct {
		Options mechanism.Options `json:"options"`
	}{opts})
	return &op{class: classRelease, method: http.MethodPost, path: "/v1/corpora/" + name + "/sanitize",
		contentType: "application/json", body: body, corpus: name, opts: opts, expect: http.StatusOK}
}

func umpOpts(eexp, delta float64, obj mechanism.Objective, seed uint64) mechanism.Options {
	return mechanism.Options{Epsilon: math.Log(eexp), Delta: delta, Objective: obj, Seed: seed}
}

// solveCold: closed loop, 2 clients, coldCorpora stored `small` corpora
// (each a single connected component); request i goes to corpus i mod
// coldCorpora with its own ε from a seeded ladder (e^ε ∈ [1.5, 2.5],
// δ = 0.5) and its own seed, so every request misses the plan cache and
// the component cache.
func solveCold(seed uint64) (*workload, error) {
	// More requests than any run can issue: a closed-loop client stops at
	// the deadline, not at the end of its list.
	const n = 6000
	w := &workload{
		lanes: make([][]*op, clients),
		// Every ladder ε is below ln 2.5; the budget can never run out
		// inside a timed run, so the spend check (served spend equals the
		// traced ledger's) is what catches a double charge.
		budget: ledger.Budget{Epsilon: float64(n+1) * math.Log(2.5), Delta: float64(n+1) * 0.5},
	}
	names := make([]string, coldCorpora)
	for c := range names {
		l, err := gen.Generate(gen.Small(), uint64(c)+1)
		if err != nil {
			return nil, err
		}
		tsv, err := tsvBytes(l)
		if err != nil {
			return nil, err
		}
		names[c] = fmt.Sprintf("cold%02d", c)
		w.setup = append(w.setup, putOp(names[c], tsv))
	}
	w.setup = append(w.setup, releaseOp(names[0], umpOpts(2, 0.5, mechanism.ObjectiveOutputSize, 1)))
	g := rng.New(seed ^ 0x5eed_c01d)
	for i := 0; i < n; i++ {
		eexp := 1.5 + g.Float64()
		o := releaseOp(names[i%coldCorpora], umpOpts(eexp, 0.5, mechanism.ObjectiveOutputSize, uint64(i)+2))
		o.lane = i % clients
		w.lanes[o.lane] = append(w.lanes[o.lane], o)
	}
	return w, nil
}

// releaseContinual: closed loop, 2 clients, each owning a stored
// `paper-sharded` corpus (16 markets; generator seed i+1). Each client
// cycles: append a seeded ~1% delta to one market (rotating), then make K
// releases on the new version at fresh seeds, alternating output-size and
// diversity at e^ε = 2, δ = 0.5, and one zealous release at the same
// (ε, δ).
func releaseContinual(seed uint64, workdir string) (*workload, error) {
	const cycles = 400 // more than any run can issue
	w := &workload{lanes: make([][]*op, clients)}
	for c := 0; c < clients; c++ {
		name := "continual" + strconv.Itoa(c)
		l, err := gen.Generate(gen.PaperSharded(), uint64(c)+1)
		if err != nil {
			return nil, err
		}
		tsv, err := tsvBytes(l)
		if err != nil {
			return nil, err
		}
		markets := marketRecords(l)
		w.setup = append(w.setup,
			putOp(name, tsv),
			releaseOp(name, umpOpts(2, 0.5, mechanism.ObjectiveOutputSize, 1)),
			releaseOp(name, umpOpts(2, 0.5, mechanism.ObjectiveDiversity, 1)))
		g := rng.New(seed ^ uint64(c+1)<<32 ^ 0xa99e4d)
		for j := 0; j < cycles; j++ {
			recs := markets[j%len(markets)]
			b := searchlog.NewBuilder()
			for range max(2, len(recs)/100) {
				r := recs[g.IntN(len(recs))]
				b.Add(r.User, r.Query, r.URL, 1)
			}
			delta, err := b.BuildLog()
			if err != nil {
				return nil, err
			}
			body, err := tsvBytes(delta)
			if err != nil {
				return nil, err
			}
			cycle := []*op{appendOp(name, body)}
			for k := 0; k < continualReleases; k++ {
				obj := mechanism.ObjectiveOutputSize
				if k%2 == 1 {
					obj = mechanism.ObjectiveDiversity
				}
				o := releaseOp(name, umpOpts(2, 0.5, obj, uint64(j*continualReleases+k)+100))
				o.firstOfVer = k < 2
				cycle = append(cycle, o)
			}
			cycle = append(cycle, releaseOp(name, mechanism.Options{
				Mechanism: "zealous", Epsilon: math.Log(2), Delta: 0.5, Seed: uint64(j) + 1}))
			for _, o := range cycle {
				o.lane = c
			}
			w.lanes[c] = append(w.lanes[c], cycle...)
		}
	}
	// Sized to exactly one cycle's releases per version: a double charge
	// within a version would be refused with a 429.
	var err error
	w.budget, err = spendOf(workdir, w.lanes[0][1:continualReleases+2])
	return w, err
}

// marketRecords returns, per market (one of the largest connected
// components of the preprocessed corpus), its raw records. A delta drawn
// from one market's existing (user, pair) cells touches that component
// only and neither splits nor merges components.
func marketRecords(l *searchlog.Log) [][]searchlog.Record {
	pre, _ := searchlog.Preprocess(l)
	comps := partition.Decompose(pre)
	sort.SliceStable(comps, func(a, b int) bool { return comps[a].Log.Size() > comps[b].Log.Size() })
	n := min(16, len(comps))
	out := make([][]searchlog.Record, n)
	for i := range out {
		out[i] = comps[i].Log.Records()
	}
	return out
}

// spendOf is the (ε, δ) the given releases charge, accounted by the
// ledger itself on a scratch journal.
func spendOf(workdir string, ops []*op) (ledger.Budget, error) {
	path := filepath.Join(workdir, "spend.jsonl")
	led, err := ledger.Open(path, ledger.Budget{Epsilon: math.MaxFloat64, Delta: math.MaxFloat64})
	if err != nil {
		return ledger.Budget{}, err
	}
	defer led.Close()
	for i, o := range ops {
		m, err := mechanism.Get(o.opts.Mechanism)
		if err != nil {
			return ledger.Budget{}, err
		}
		cost := m.Cost(o.opts)
		key, err := releaseKey("spend", o.opts)
		if err != nil {
			return ledger.Budget{}, err
		}
		if err := led.Check("spend", key, cost.Epsilon, cost.Delta); err != nil {
			return ledger.Budget{}, fmt.Errorf("spend of release %d: %w", i, err)
		}
		if _, _, err := led.Charge("spend", "spend", key, cost.Epsilon, cost.Delta); err != nil {
			return ledger.Budget{}, fmt.Errorf("spend of release %d: %w", i, err)
		}
	}
	spent := led.Spent("spend")
	if err := led.Close(); err != nil {
		return ledger.Budget{}, err
	}
	return spent, os.Remove(path)
}

// releaseKey is the server's release identity: corpus digest ⊕ canonical
// options (the plan-cache key and the ledger's idempotency key).
func releaseKey(digest string, opts mechanism.Options) (string, error) {
	canon, err := json.Marshal(opts.Canonical())
	if err != nil {
		return "", err
	}
	return digest + "\x00" + string(canon), nil
}
