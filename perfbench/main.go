// Command perfbench is dpslog's repository benchmark. It starts the slserve
// binary built from the checkout under test (temporary -data-dir, -quiet,
// ops listener on), drives one workload against it from this single
// load-generator process over at most two connections, checks every served
// output, and prints the workload's metrics. Run it through run.sh from
// the repository root, which builds both binaries:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 25 --trace 0
//
// Workloads (see workloads.go): solve-cold and release-continual.
//
// Every run, traced or not, ends with a traced run: the served request
// sequence is replayed in-process through the internal layers' public calls
// (corpus, ingest, searchlog, partition, ump, dp, sampling, mechanism,
// ledger) with a span around each call. It is the oracle for the output
// checks: every served release digest must equal the traced one, every
// served plan must pass dpslog.VerifyCounts, the served budget spend must
// equal the traced ledger's, and the server's solver-iteration counter must
// move by exactly the traced sum.
// With --trace 0 the traced run uses both cores and the result line holds
// the end-to-end metrics, measured untraced; with --trace 1 it runs
// sequentially, its spans are written to .bench_build/, and the result
// line holds the per-layer metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any output check fails or the run cannot complete.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	slserve  string
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: solve-cold or release-continual")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 25, "measured duration of the timed section")
	flag.IntVar(&traceFlag, "trace", 0, "0: report end-to-end metrics; 1: report per-layer metrics from the traced run")
	flag.StringVar(&cfg.slserve, "slserve", "", "slserve binary to benchmark")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for run state and span output")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.slserve == "" || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -slserve, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%s %-32s %14.4f %s\n", cfg.workload, name, m.Value, m.Unit)
	}
	fmt.Printf("%s attempted=%d ok=%d failed=%d correct=%v\n",
		cfg.workload, rep.Attempted, rep.Attempted-rep.Failed, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// setupRuns is how many times each run sets the server up; setup_s is the
// median and the last server is the one measured.
const setupRuns = 5

// runState is everything the served run observed.
type runState struct {
	w       *workload
	issued  [][]*op // per lane, in send order
	elapsed time.Duration
	setups  []float64
	scrape  scrape // after minus before the timed section
	rssMB   float64
	spent   map[string][2]float64 // version digest → served (ε, δ) spend
}

func run(cfg config) (*report, error) {
	runDir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("run-%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	w, err := buildWorkload(cfg.workload, cfg.seed, runDir)
	if err != nil {
		return nil, err
	}
	st, err := serve(cfg, w, runDir)
	if err != nil {
		return nil, err
	}
	workers := clients
	if cfg.trace {
		workers = 1
	}
	rp, err := newReplayer(filepath.Join(runDir, "traced"), w.budget)
	if err != nil {
		return nil, err
	}
	rp.replay(w.setup, st.issued, workers)
	if err := rp.close(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := rp.t.writeSpans(filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.ndjson", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	problems := append(rp.problems, crossCheck(st, rp, cfg.trace)...)
	rep := &report{}
	for _, o := range st.all() {
		rep.Attempted++
		if !o.ok() {
			rep.Failed++
			if len(problems) < 40 {
				problems = append(problems, fmt.Sprintf("%s %s: status %d (want %d), err %v", o.method, o.path, o.res.status, o.expect, o.res.err))
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	rep.Correct = len(problems) == 0 && rep.Failed == 0
	if cfg.trace {
		rep.Metrics = layerMetrics(st, rp)
	} else {
		rep.Metrics = endToEnd(st)
	}
	return rep, nil
}

// serve runs the set-ups and the timed section against slserve.
func serve(cfg config, w *workload, runDir string) (*runState, error) {
	ctx := context.Background()
	client := newClient(clients)
	st := &runState{w: w, spent: map[string][2]float64{}}
	var srv *server
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		s, err := startServer(cfg.slserve, filepath.Join(runDir, fmt.Sprintf("data%d", i)), w.budget)
		if err != nil {
			return nil, err
		}
		if err := s.waitReady(client, 60*time.Second); err != nil {
			return nil, errors.Join(err, s.stop())
		}
		if err := runSequential(ctx, client, s.base, w.setup); err != nil {
			return nil, errors.Join(err, s.stop())
		}
		st.setups = append(st.setups, time.Since(start).Seconds())
		if i < setupRuns-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	err := st.measure(ctx, client, srv, cfg)
	return st, errors.Join(err, srv.stop())
}

// measure runs the timed section and collects everything the checks need
// from the live server.
func (st *runState) measure(ctx context.Context, client *http.Client, srv *server, cfg config) error {
	before, err := srv.scrapeMetrics(ctx, client)
	if err != nil {
		return err
	}
	st.issued, st.elapsed = runClosed(ctx, client, srv.base, st.w.lanes, time.Duration(cfg.seconds)*time.Second)
	after, err := srv.scrapeMetrics(ctx, client)
	if err != nil {
		return err
	}
	st.scrape = after.delta(before)
	if st.rssMB, err = srv.peakRSSMB(); err != nil {
		return err
	}
	return st.collectSpend(ctx, client, srv.base)
}

// collectSpend reads the served budget spend of every corpus version that
// received a release.
func (st *runState) collectSpend(ctx context.Context, client *http.Client, base string) error {
	for _, o := range append(append([]*op(nil), st.w.setup...), st.all()...) {
		if o.class != classRelease || !o.ok() {
			continue
		}
		v := o.res.resp.versionDigest()
		if _, ok := st.spent[v]; ok {
			continue
		}
		probe := &op{method: http.MethodGet, path: "/v1/corpora/" + o.corpus + "/budget?version=" + v, expect: http.StatusOK}
		do(ctx, client, base, probe)
		if !probe.ok() {
			return fmt.Errorf("budget of %s@%.12s: status %d, err %v", o.corpus, v, probe.res.status, probe.res.err)
		}
		sp := probe.res.resp.Budget.Spent
		st.spent[v] = [2]float64{sp.E, sp.D}
	}
	return nil
}

// all lists every issued op.
func (st *runState) all() []*op {
	var out []*op
	for _, lane := range st.issued {
		out = append(out, lane...)
	}
	return out
}

// crossCheck compares the server's own accounting with the traced run and,
// for a sequential traced run, checks that its spans account for the
// requests' time (two concurrent lanes also wait for the CPU between
// spans, which no layer owns).
func crossCheck(st *runState, rp *replayer, sequential bool) []string {
	var out []string
	for v, served := range st.spent {
		traced := rp.led.Spent(v)
		te, td := traced.Epsilon, traced.Delta
		if !relTolEqual(served[0], te) || !relTolEqual(served[1], td) {
			out = append(out, fmt.Sprintf("version %.12s: served spend (%g, %g), traced (%g, %g)", v, served[0], served[1], te, td))
		}
	}
	// Every timed solve is deterministic and no two requests race on one
	// cache miss, so the server's iteration counter moves by exactly the
	// traced sum.
	var iters int
	for _, s := range rp.solves {
		if s.timed {
			iters += s.plan.Iterations
		}
	}
	if float64(iters) != st.scrape.iterations {
		out = append(out, fmt.Sprintf("server solver iterations moved by %g, traced solves sum to %d", st.scrape.iterations, iters))
	}
	if c := rp.coverage(); sequential && c < minCoverage {
		out = append(out, fmt.Sprintf("layer spans cover %.3f of the traced request time, want ≥ %.2f", c, minCoverage))
	}
	return out
}

// minCoverage is the share of traced request time the layer spans must
// cover; the rest is the benchmark's own glue.
const minCoverage = 0.9
