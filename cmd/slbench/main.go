// Command slbench measures the solver hot paths — monolithic vs
// component-decomposed, sequential vs parallel — plus the multinomial
// sampling step, the warm-started grid sweeps, the streaming sharded
// ingest fold and every registered release mechanism end to end, and emits
// a machine-readable benchmark trajectory (BENCH_pr10.json) that future
// changes are compared against.
//
// Usage:
//
//	slbench [-o BENCH_pr10.json] [-profiles tiny,small,tiny-sharded,small-sharded]
//	        [-objectives output-size,diversity] [-benchtime 1s|1x] [-seed 1]
//	        [-baseline BENCH_pr2.json] [-no-sweeps]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// Each benchmark runs through testing.Benchmark, so -benchtime follows the
// go test convention (a duration, or N iterations as "Nx"). Corpus
// generation and preprocessing happen outside the timed region; the numbers
// are pure solve cost. Single-market profiles (tiny, small) form one giant
// connected component — there the decomposed rows measure the
// decomposition's overhead, not a speedup; the *-sharded profiles decompose
// into one component per market and show the win.
//
// The {profile}/mechanism/{name} rows run each mechanism registered in
// internal/mechanism (ump, laplace, zealous, localdp) through its full
// Sanitize path at a matched e^ε = 2 budget; the gated objective is the
// released row count, which is deterministic in -seed, so the baseline
// comparison doubles as a cross-machine determinism check of every release
// path the server can dispatch to.
//
// With -baseline, slbench compares every objective value against the named
// earlier trajectories by benchmark name and exits nonzero on any mismatch
// (speed may drift between machines, λ and plan objectives may not) or when
// a baseline shares no row with the run. For each baseline it prints how
// many rows it compared and names the rows this run did not produce, such
// as the four output-size rows of BENCH_pr3.json onward that timed the
// monolithic solve on the dense basis engine, retired with that engine.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/gen"
	"dpslog/internal/ingest"
	"dpslog/internal/mechanism"
	"dpslog/internal/rng"
	"dpslog/internal/sampling"
	"dpslog/internal/searchlog"
	"dpslog/internal/ump"
)

// benchResult is one benchmark row of the emitted trajectory.
type benchResult struct {
	Name           string  `json:"name"`
	Profile        string  `json:"profile"`
	Objective      string  `json:"objective"`
	Mode           string  `json:"mode"`
	Parallelism    int     `json:"parallelism"`
	Components     int     `json:"components"`
	Pairs          int     `json:"pairs"`
	Users          int     `json:"users"`
	ObjectiveValue float64 `json:"objective_value"`
	N              int     `json:"n"`
	NsPerOp        float64 `json:"ns_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
}

type trajectory struct {
	PR         string        `json:"pr"`
	GoMaxProcs int           `json:"go_max_procs"`
	Seed       uint64        `json:"seed"`
	Benchtime  string        `json:"benchtime"`
	EExp       float64       `json:"eexp"`
	Delta      float64       `json:"delta"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// The paper's (e^ε, δ) grids, for the warm-started Table-4 sweep (kept in
// sync with internal/experiments; duplicated to keep slbench free of the
// experiment runner's corpus-generation weight).
var (
	eExpGrid7  = []float64{1.001, 1.01, 1.1, 1.4, 1.7, 2.0, 2.3}
	deltaGrid7 = []float64{1e-4, 1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8}
)

func main() {
	out := flag.String("o", "BENCH_pr10.json", "output JSON file (- for stdout)")
	profiles := flag.String("profiles", "tiny,small,tiny-sharded,small-sharded", "comma-separated corpus profiles")
	objectives := flag.String("objectives", "output-size,diversity", "comma-separated objectives: output-size, diversity")
	benchtime := flag.String("benchtime", "", "per-benchmark budget, go test style (e.g. 2s or 1x); empty = testing default (1s)")
	seed := flag.Uint64("seed", 1, "corpus generation seed")
	baseline := flag.String("baseline", "", "comma-separated earlier trajectory JSONs; objective values must match by name (λ drift fails the run)")
	noSweeps := flag.Bool("no-sweeps", false, "skip the warm-started table4/frontier sweep benchmarks")
	appendProfiles := flag.String("append-profiles", "tiny-sharded,small-sharded,paper-sharded", "comma-separated multi-market profiles for the continual-release append benchmark (empty = skip)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file once the benchmarks finish")
	testing.Init()
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fatal(err)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	params := dp.Params{Eps: math.Log(2), Delta: 0.5}
	traj := trajectory{
		PR:         "pr10",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Benchtime:  *benchtime,
		EExp:       2.0,
		Delta:      0.5,
	}

	for _, profile := range strings.Split(*profiles, ",") {
		profile = strings.TrimSpace(profile)
		p, err := gen.Profiles(profile)
		if err != nil {
			fatal(err)
		}
		raw, err := gen.Generate(p, *seed)
		if err != nil {
			fatal(err)
		}
		pre, _ := searchlog.Preprocess(raw)

		modes := []struct {
			name string
			opts ump.Options
			par  int
		}{
			{"monolithic", ump.Options{NoDecompose: true}, 1},
			{"decomposed-p1", ump.Options{Parallelism: 1}, 1},
			{"decomposed-pmax", ump.Options{}, runtime.GOMAXPROCS(0)},
		}
		for _, objective := range strings.Split(*objectives, ",") {
			objective = strings.TrimSpace(objective)
			for _, mode := range modes {
				solve, err := solverFor(objective, pre, params, mode.opts)
				if err != nil {
					fatal(err)
				}
				// One untimed solve for the plan-shaped metadata.
				plan, err := solve()
				if err != nil {
					fatal(fmt.Errorf("%s/%s/%s: %w", profile, objective, mode.name, err))
				}
				r := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := solve(); err != nil {
							b.Fatal(err)
						}
					}
				})
				addRow(&traj, benchResult{
					Name:           fmt.Sprintf("%s/%s/%s", profile, objective, mode.name),
					Profile:        profile,
					Objective:      objective,
					Mode:           mode.name,
					Parallelism:    mode.par,
					Components:     plan.Components,
					Pairs:          pre.NumPairs(),
					Users:          pre.NumUsers(),
					ObjectiveValue: plan.Objective,
					N:              r.N,
					NsPerOp:        float64(r.NsPerOp()),
					BytesPerOp:     r.AllocedBytesPerOp(),
					AllocsPerOp:    r.AllocsPerOp(),
				})
			}
		}

		// The multinomial sampling step, for the end-to-end picture.
		counts := make([]int, pre.NumPairs())
		for i := range counts {
			counts[i] = pre.PairCount(i) / 2
		}
		g := rng.New(7)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sampling.Output(g, pre, counts); err != nil {
					b.Fatal(err)
				}
			}
		})
		addRow(&traj, benchResult{
			Name:        profile + "/sampling",
			Profile:     profile,
			Objective:   "sampling",
			Mode:        "sampling",
			Parallelism: 1,
			Components:  1,
			Pairs:       pre.NumPairs(),
			Users:       pre.NumUsers(),
			N:           r.N,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})

		// Warm-started sweep benchmarks: the experiment-layer workloads the
		// warm starts were built for, on the small profiles only (the tiny
		// ones drown in fixed costs).
		if !*noSweeps && strings.HasPrefix(profile, "small") {
			benchSweeps(&traj, profile, pre)
		}

		// The streaming sharded ingest fold, sequential vs parallel, over
		// the raw corpus bytes. The recorded objective is the ingested
		// log's total size — any drift means the streaming path no longer
		// reproduces the histogram, which is exactly what the baseline
		// gate should catch.
		benchIngest(&traj, profile, raw)

		// Every registered release mechanism, end to end.
		benchMechanisms(&traj, profile, pre, *seed)

	}

	// The continual-release incremental re-solve runs over its own profile
	// list: the ratio only exists on multi-market corpora (a single giant
	// component leaves an append nothing to reuse), and the gated profile —
	// paper-sharded, where superlinear per-component solve cost dominates
	// the linear decompose+digest overhead — is too heavy to drag through
	// the full per-profile suite above.
	for _, profile := range strings.Split(*appendProfiles, ",") {
		profile = strings.TrimSpace(profile)
		if profile == "" {
			continue
		}
		p, err := gen.Profiles(profile)
		if err != nil {
			fatal(err)
		}
		raw, err := gen.Generate(p, *seed)
		if err != nil {
			fatal(err)
		}
		benchAppend(&traj, profile, raw, params)
	}

	// Profiles are flushed before the baseline gate: a gate failure is
	// exactly when the CPU picture of the run is most wanted.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	enc, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	for _, base := range strings.Split(*baseline, ",") {
		base = strings.TrimSpace(base)
		if base == "" {
			continue
		}
		summary, err := checkBaseline(traj, base)
		if summary != "" {
			fmt.Fprintf(os.Stderr, "slbench: baseline %s: %s\n", base, summary)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "slbench: objective values match baseline %s\n", base)
	}
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "slbench: wrote %d benchmarks to %s\n", len(traj.Benchmarks), *out)
}

func addRow(traj *trajectory, row benchResult) {
	traj.Benchmarks = append(traj.Benchmarks, row)
	fmt.Fprintf(os.Stderr, "slbench: %-48s %12.0f ns/op  %8d allocs/op  (N=%d, comps=%d, obj=%g)\n",
		row.Name, row.NsPerOp, row.AllocsPerOp, row.N, row.Components, row.ObjectiveValue)
}

// distinctBudgets reduces the paper's 7×7 grid to its distinct merged
// budgets (the constraint system depends on min{ε, ln 1/(1−δ)} only),
// sorted ascending for determinism.
func distinctBudgets() []dp.Params {
	seen := map[float64]dp.Params{}
	for _, e := range eExpGrid7 {
		for _, d := range deltaGrid7 {
			p := dp.FromEExp(e, d)
			seen[p.Budget()] = p
		}
	}
	budgets := make([]float64, 0, len(seen))
	for b := range seen {
		budgets = append(budgets, b)
	}
	sort.Float64s(budgets)
	out := make([]dp.Params, 0, len(budgets))
	for _, b := range budgets {
		out = append(out, seen[b])
	}
	return out
}

// benchSweeps measures the table4 λ sweep (distinct budgets of the paper
// grid) and the frontier ladder (min-privacy solves for rising targets),
// cold versus warm-started, and records the summed integral objectives so
// the baseline gate covers the sweeps too.
func benchSweeps(traj *trajectory, profile string, pre *searchlog.Log) {
	budgets := distinctBudgets()
	reference := dp.FromEExp(2.0, 0.5)

	sweepLambda := func(warm bool) (float64, testing.BenchmarkResult) {
		total := 0.0
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				total = 0
				var pool *ump.WarmStarts
				if warm {
					// Anchor exactly like internal/experiments: one cold
					// solve of the reference point seeds the sticky pool;
					// every other budget warm-starts from it.
					pool = ump.NewWarmStarts(true)
					if _, err := ump.MaxOutputSize(pre, reference, ump.Options{Warm: pool}); err != nil {
						b.Fatal(err)
					}
				}
				for _, p := range budgets {
					plan, err := ump.MaxOutputSize(pre, p, ump.Options{Warm: pool})
					if err != nil {
						b.Fatal(err)
					}
					total += math.Floor(plan.RelaxationObjective)
				}
			}
		})
		return total, r
	}

	for _, mode := range []string{"cold", "warm"} {
		total, r := sweepLambda(mode == "warm")
		addRow(traj, benchResult{
			Name:           fmt.Sprintf("%s/sweep-table4/%s", profile, mode),
			Profile:        profile,
			Objective:      "sweep-table4",
			Mode:           mode,
			Parallelism:    runtime.GOMAXPROCS(0),
			Components:     len(budgets),
			Pairs:          pre.NumPairs(),
			Users:          pre.NumUsers(),
			ObjectiveValue: total,
			N:              r.N,
			NsPerOp:        float64(r.NsPerOp()),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
		})
	}

	// Frontier ladder: targets as fractions of the reference λ.
	refPlan, err := ump.MaxOutputSize(pre, reference, ump.Options{})
	if err != nil {
		fatal(err)
	}
	ref := int(math.Floor(refPlan.RelaxationObjective))
	if ref < 4 {
		return
	}
	var targets []int
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		if t := int(frac * float64(ref)); t >= 1 {
			targets = append(targets, t)
		}
	}
	sweepFrontier := func(warm bool) (float64, testing.BenchmarkResult) {
		total := 0.0
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				total = 0
				var pool *ump.WarmStarts
				if warm {
					// Sequential ladder: rolling semantics, each step
					// continues from its predecessor's basis.
					pool = ump.NewWarmStarts(false)
				}
				for _, target := range targets {
					res, err := ump.MinPrivacy(pre, target, ump.Options{Warm: pool})
					if err != nil {
						b.Fatal(err)
					}
					total += float64(res.Plan.OutputSize)
				}
			}
		})
		return total, r
	}
	for _, mode := range []string{"cold", "warm"} {
		total, r := sweepFrontier(mode == "warm")
		addRow(traj, benchResult{
			Name:           fmt.Sprintf("%s/sweep-frontier/%s", profile, mode),
			Profile:        profile,
			Objective:      "sweep-frontier",
			Mode:           mode,
			Parallelism:    1,
			Components:     len(targets),
			Pairs:          pre.NumPairs(),
			Users:          pre.NumUsers(),
			ObjectiveValue: total,
			N:              r.N,
			NsPerOp:        float64(r.NsPerOp()),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
		})
	}
}

// benchIngest measures ingest.Ingest over the profile's canonical TSV
// bytes at fold widths 1 and GOMAXPROCS, asserting along the way that the
// shard count does not change the digest (the ingest determinism
// invariant), and records the ingested size as the gated objective.
func benchIngest(traj *trajectory, profile string, raw *searchlog.Log) {
	var buf bytes.Buffer
	if _, err := searchlog.WriteTSV(&buf, raw); err != nil {
		fatal(err)
	}
	data := buf.Bytes()
	wantDigest := raw.Digest()
	// Fixed fold widths (not GOMAXPROCS) so benchmark names — and with
	// them the baseline comparison — are machine-independent.
	for _, shards := range []int{1, 8} {
		mode := fmt.Sprintf("shards-%d", shards)
		l, _, err := ingest.Ingest(bytes.NewReader(data), ingest.Config{Shards: shards})
		if err != nil {
			fatal(fmt.Errorf("%s/ingest/%s: %w", profile, mode, err))
		}
		if l.Digest() != wantDigest {
			fatal(fmt.Errorf("%s/ingest/%s: digest diverged from the in-memory path", profile, mode))
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, _, err := ingest.Ingest(bytes.NewReader(data), ingest.Config{Shards: shards}); err != nil {
					b.Fatal(err)
				}
			}
		})
		addRow(traj, benchResult{
			Name:           fmt.Sprintf("%s/ingest/%s", profile, mode),
			Profile:        profile,
			Objective:      "ingest",
			Mode:           mode,
			Parallelism:    shards,
			Components:     1,
			Pairs:          raw.NumPairs(),
			Users:          raw.NumUsers(),
			ObjectiveValue: float64(l.Size()),
			N:              r.N,
			NsPerOp:        float64(r.NsPerOp()),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
		})
	}
}

// benchAppend measures the continual-release re-solve (PR 10): a ~1%
// append into one connected component of a multi-market corpus, solved
// cold versus incrementally through a component-plan cache primed with the
// pre-append solve. The incremental plan must be byte-identical to the
// cold one and reuse every untouched component — the cache may only change
// wall-clock — and on profiles with ≥ 16 components (paper-sharded) the
// incremental path must be ≥ 5× faster, the PR 10 headline gate (enforced
// in-process: the ratio is same-machine, unlike the cross-machine objective
// baseline). Smaller sharded profiles report the ratio ungated: their
// components are small enough that the linear decompose+digest floor both
// paths share compresses the achievable ratio.
func benchAppend(traj *trajectory, profile string, raw *searchlog.Log, params dp.Params) {
	pre1, _ := searchlog.Preprocess(raw)

	// v2 folds ~1% of the corpus mass onto one surviving (user, pair) cell:
	// the pair is non-unique in pre1 (so it survives preprocessing in v2
	// too) and exactly one component's content changes.
	touched := pre1.Pair(0)
	key := touched.Key()
	holder := pre1.User(touched.Entries[0].User).ID
	uc := raw.UserCounts()
	uc[holder][key] += raw.Size()/100 + 1
	v2, err := searchlog.BuildFromUserCounts(uc)
	if err != nil {
		fatal(err)
	}
	pre2, _ := searchlog.Preprocess(v2)

	solve := func(cache *ump.ComponentCache) (*ump.Plan, error) {
		return ump.MaxOutputSize(pre2, params, ump.Options{Parallelism: 1, Comp: cache})
	}
	// primed returns a cache holding the pre-append solve's per-component
	// plans — the state a server's shared cache is in when the append lands.
	primed := func() *ump.ComponentCache {
		cache := ump.NewComponentCache(0)
		if _, err := ump.MaxOutputSize(pre1, params, ump.Options{Parallelism: 1, Comp: cache}); err != nil {
			fatal(err)
		}
		return cache
	}

	// Correctness before speed: equal plans, all-but-one component reused.
	cold, err := solve(nil)
	if err != nil {
		fatal(fmt.Errorf("%s/append/cold: %w", profile, err))
	}
	inc, err := solve(primed())
	if err != nil {
		fatal(fmt.Errorf("%s/append/incremental: %w", profile, err))
	}
	if len(cold.Counts) != len(inc.Counts) {
		fatal(fmt.Errorf("%s/append: plan shapes diverged", profile))
	}
	for i := range cold.Counts {
		if cold.Counts[i] != inc.Counts[i] {
			fatal(fmt.Errorf("%s/append: incremental plan diverged from cold at pair %d", profile, i))
		}
	}
	if inc.Reused != inc.Components-1 {
		fatal(fmt.Errorf("%s/append: reused %d of %d components, want all but the touched one", profile, inc.Reused, inc.Components))
	}

	// The ratio gate below divides two measurements, so each side is the
	// best of three testing.Benchmark runs: at -benchtime 1x a single
	// descheduling blip on either side would swing a one-iteration ratio
	// far more than any real regression.
	bestOf3 := func(f func(b *testing.B)) testing.BenchmarkResult {
		best := testing.Benchmark(f)
		for i := 0; i < 2; i++ {
			if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		return best
	}
	rCold := bestOf3(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solve(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	rInc := bestOf3(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Re-prime outside the timed region: each iteration measures one
			// post-append re-solve against the pre-append cache state, not a
			// fully warmed second pass.
			b.StopTimer()
			cache := primed()
			b.StartTimer()
			if _, err := solve(cache); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, row := range []struct {
		mode string
		plan *ump.Plan
		r    testing.BenchmarkResult
	}{
		{"append-cold", cold, rCold},
		{"append-incremental", inc, rInc},
	} {
		addRow(traj, benchResult{
			Name:           fmt.Sprintf("%s/append/%s", profile, row.mode),
			Profile:        profile,
			Objective:      "output-size",
			Mode:           row.mode,
			Parallelism:    1,
			Components:     row.plan.Components,
			Pairs:          pre2.NumPairs(),
			Users:          pre2.NumUsers(),
			ObjectiveValue: row.plan.Objective,
			N:              row.r.N,
			NsPerOp:        float64(row.r.NsPerOp()),
			BytesPerOp:     row.r.AllocedBytesPerOp(),
			AllocsPerOp:    row.r.AllocsPerOp(),
		})
	}
	speedup := float64(rCold.NsPerOp()) / float64(rInc.NsPerOp())
	fmt.Fprintf(os.Stderr, "slbench: %s/append speedup %.2fx (cold %d ns/op, incremental %d ns/op, %d/%d components reused)\n",
		profile, speedup, rCold.NsPerOp(), rInc.NsPerOp(), inc.Reused, inc.Components)
	if inc.Components >= 16 && speedup < 5 {
		fatal(fmt.Errorf("%s/append: incremental re-solve only %.2fx faster than cold, want ≥ 5x", profile, speedup))
	}
}

// benchMechanisms runs every registered release mechanism end to end over
// the preprocessed corpus at a matched e^ε = 2 budget and records the
// released row count as the gated objective. All four paths are seeded, so
// a row-count drift on any machine means a release path changed behaviour —
// the same invariant the server's ledger identity depends on. The aggregate
// calibration matches internal/experiments: contribution bound 5 with
// δ̂ = 10⁻³ for laplace, δ = 0.5 for zealous, and localdp's pure-ε defaults
// (bound 1: its per-bit budget ε/2B would vanish at bound 5).
func benchMechanisms(traj *trajectory, profile string, pre *searchlog.Log, seed uint64) {
	ctx := context.Background()
	for _, name := range mechanism.Names() {
		m, err := mechanism.Get(name)
		if err != nil {
			fatal(err)
		}
		opts := mechanism.Options{Mechanism: name, Epsilon: math.Log(2), Seed: seed}
		switch name {
		case "ump":
			opts.Delta = 0.5
		case "laplace":
			opts.Delta, opts.D = 1e-3, 5
		case "zealous":
			opts.Delta, opts.D = 0.5, 5
		}
		rel, err := m.Sanitize(ctx, pre, opts)
		if err != nil {
			fatal(fmt.Errorf("%s/mechanism/%s: %w", profile, name, err))
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Sanitize(ctx, pre, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		addRow(traj, benchResult{
			Name:           fmt.Sprintf("%s/mechanism/%s", profile, name),
			Profile:        profile,
			Objective:      "mechanism",
			Mode:           name,
			Parallelism:    1,
			Components:     1,
			Pairs:          pre.NumPairs(),
			Users:          pre.NumUsers(),
			ObjectiveValue: float64(rel.Rows()),
			N:              r.N,
			NsPerOp:        float64(r.NsPerOp()),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
		})
	}
}

// checkBaseline fails when any benchmark present in both trajectories
// disagrees on its objective value (machines may change speed, never λ or
// plan objectives), or when the two share no benchmark. Its
// summary counts the baseline rows compared and names those this run did
// not produce, so a retired or lost row shows in the log.
func checkBaseline(traj trajectory, path string) (summary string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("baseline: %w", err)
	}
	var base trajectory
	if err := json.Unmarshal(raw, &base); err != nil {
		return "", fmt.Errorf("baseline %s: %w", path, err)
	}
	got := make(map[string]float64, len(traj.Benchmarks))
	for _, r := range traj.Benchmarks {
		got[r.Name] = r.ObjectiveValue
	}
	var mismatches, missing []string
	compared := 0
	for _, r := range base.Benchmarks {
		v, ok := got[r.Name]
		if !ok {
			missing = append(missing, r.Name)
			continue
		}
		compared++
		if v != r.ObjectiveValue {
			mismatches = append(mismatches, fmt.Sprintf("%s: objective %g != baseline %g", r.Name, v, r.ObjectiveValue))
		}
	}
	summary = fmt.Sprintf("compared %d of %d rows", compared, len(base.Benchmarks))
	if len(missing) > 0 {
		summary += fmt.Sprintf("; not produced by this run: %s", strings.Join(missing, ", "))
	}
	if compared == 0 {
		return summary, fmt.Errorf("baseline %s shares no benchmark names with this run", path)
	}
	if len(mismatches) > 0 {
		return summary, fmt.Errorf("objective drift vs %s:\n  %s", path, strings.Join(mismatches, "\n  "))
	}
	return summary, nil
}

// solverFor binds one objective solve over the preprocessed corpus.
func solverFor(objective string, pre *searchlog.Log, params dp.Params, opts ump.Options) (func() (*ump.Plan, error), error) {
	switch objective {
	case "output-size", "size":
		return func() (*ump.Plan, error) { return ump.MaxOutputSize(pre, params, opts) }, nil
	case "diversity":
		return func() (*ump.Plan, error) { return ump.Diversity(pre, params, opts) }, nil
	}
	return nil, fmt.Errorf("slbench: unknown objective %q (have output-size, diversity)", objective)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slbench:", err)
	os.Exit(1)
}
