// Package ump formulates and solves the paper's three utility-maximizing
// problems over the differential privacy constraints of Theorem 1:
//
//	O-UMP (§5.1) — maximize the output size Σ x_ij (LP; optimum λ),
//	F-UMP (§5.2) — minimize the frequent-pair support distances at a fixed
//	               output size |O| ≤ λ (LP after the absolute-value
//	               linearization),
//	D-UMP (§5.3) — maximize the number of distinct retained pairs (BIP via
//	               the Theorem-2 reduction; solved by internal/bip).
//
// Each solve returns a Plan: exact integer output counts per pair (the LP
// solution floored, then repaired to strict feasibility), ready for the
// multinomial sampling step. Plans always satisfy the Theorem-1 constraints
// exactly — flooring only decreases the non-negative left-hand sides, and a
// final repair pass removes any residue of floating-point noise.
//
// The paper's formulations list only non-negativity and the DP rows, but its
// Table 4 saturates as the budget grows, which is only possible with the
// implicit cap x_ij ≤ c_ij (see DESIGN.md §2). The cap is applied by
// default; Options.NoBoxConstraint removes it for the ablation benchmark.
package ump

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"dpslog/internal/bip"
	"dpslog/internal/dp"
	"dpslog/internal/lp"
	"dpslog/internal/obs"
	"dpslog/internal/searchlog"
)

// Kind identifies which utility-maximizing problem produced a plan.
type Kind string

const (
	// KindOutputSize is O-UMP.
	KindOutputSize Kind = "O-UMP"
	// KindFrequent is F-UMP.
	KindFrequent Kind = "F-UMP"
	// KindDiversity is D-UMP.
	KindDiversity Kind = "D-UMP"
	// KindCombined is the §7 joint size/fidelity objective (extension).
	KindCombined Kind = "C-UMP"
	// KindMinPrivacy is the §7 breach-minimizing dual problem (extension).
	KindMinPrivacy Kind = "P-MIN"
	// KindQueryDiversity is the §5.3 query-level diversity variant
	// (extension).
	KindQueryDiversity Kind = "Q-UMP"
)

// WarmStarts is a concurrency-safe pool of simplex basis snapshots shared
// across related solves of one corpus: the ε/δ grid sweeps re-solve the
// same constraint matrix under different budgets, and the serving layer
// re-solves the same corpus on plan-cache misses. Bases are keyed by
// (problem kind, decomposition scope, LP shape), so a snapshot can only
// ever seed a structurally compatible solve — and the LP layer re-validates
// shape, nonsingularity and primal feasibility before using one, falling
// back to a cold start otherwise. Warm starts therefore never change which
// plans are optimal, only how fast the solver re-proves it.
//
// A sticky pool keeps the first basis stored per key ("anchor" semantics):
// every later solve warm-starts from the same snapshot regardless of the
// order concurrent solves complete in, which keeps grid experiments
// deterministic under parallel prewarming. A rolling (non-sticky) pool
// keeps the latest basis — the right choice for sequential sweeps such as
// the frontier bisection, where each step continues from its predecessor.
type WarmStarts struct {
	mu     sync.Mutex
	sticky bool
	bases  map[string]*lp.Basis
}

// NewWarmStarts creates an empty pool. sticky selects first-write-wins
// (anchor) semantics; see the type comment.
func NewWarmStarts(sticky bool) *WarmStarts {
	return &WarmStarts{sticky: sticky, bases: make(map[string]*lp.Basis)}
}

// Len reports the number of cached bases (for tests and metrics).
func (w *WarmStarts) Len() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.bases)
}

func (w *WarmStarts) lookup(key string) *lp.Basis {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bases[key]
}

func (w *WarmStarts) store(key string, b *lp.Basis) {
	if w == nil || b == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sticky {
		if _, ok := w.bases[key]; ok {
			return
		}
	}
	w.bases[key] = b.Clone()
}

// Options tune the solves.
type Options struct {
	// LP is passed through to the simplex solver.
	LP lp.Options
	// Warm, when non-nil, shares simplex bases across solves (grid sweeps,
	// plan-cache-miss re-solves). Pools are corpus-scoped: callers must not
	// share one pool across different corpora — a mismatched basis is
	// harmless (it fails warm-start validation) but wastes the lookup.
	Warm *WarmStarts
	// warmScope namespaces pool keys by decomposition context (monolithic
	// vs per-component); set internally by the decompose entry points.
	warmScope string
	// Comp, when non-nil, caches per-component plans by component content
	// digest so a re-solve after an append only pays for the components the
	// appended rows actually changed (see cache.go). Like Warm it never
	// changes which plan is produced — a reused plan is byte-identical to
	// the solve it replaces — and unlike Warm it is safe to share across
	// corpora: the content digest is the identity.
	Comp *ComponentCache
	// NoBoxConstraint drops the x_ij ≤ c_ij cap (ablation only; O-UMP then
	// scales linearly in the budget instead of reproducing Table 4's
	// plateaus).
	NoBoxConstraint bool
	// Solver names the BIP solver for D-UMP; empty means "spe" (the paper's
	// Algorithm 2).
	Solver string
	// Parallelism bounds concurrent connected-component solves (0 means
	// GOMAXPROCS, 1 solves components sequentially). Plans are invariant in
	// it — only wall-clock changes.
	Parallelism int
	// NoDecompose skips the component decomposition and solves the log
	// monolithically, exactly as before internal/partition existed. It is
	// the differential-testing and ablation-benchmark baseline.
	NoDecompose bool
	// Ctx, when non-nil, carries an obs trace: every LP/BIP solve and the
	// decomposition record child spans under it. It never affects which
	// plan is produced — a nil Ctx (or one without an active span) makes
	// every tracing call a no-op.
	Ctx context.Context
}

// ctx resolves Options.Ctx for span creation.
func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		// A nil Options.Ctx means the caller is untraced and undeadlined
		// by design (library use outside the server); this is the one
		// documented fallback.
		//slvet:ignore ctxflow nil Options.Ctx is the documented untraced/undeadlined library entry point; server callers always set Ctx
		return context.Background()
	}
	return o.Ctx
}

// PlanFormat versions the plans this package returns for a given input
// and options. The UMP LPs have alternate optima, and the simplex breaks
// exact ties in pricing on floating-point rounding, so a change to the
// solver's arithmetic can move a plan (and the released bytes) while λ and
// every objective value stay equal. Such a change bumps PlanFormat; the
// server folds it into the release identity, so a release journaled under
// an older format is charged as a new release rather than replayed, free,
// with different bytes.
//
// Format 1 is the original solver; format 2 rebuilds the sparse LU on eta
// cost (see DESIGN.md §7).
const PlanFormat = 2

// Plan is an integral, strictly feasible assignment of output counts.
type Plan struct {
	// Kind records the producing problem.
	Kind Kind
	// Counts holds x*_ij per pair index of the log the plan was built from.
	Counts []int
	// OutputSize is Σ Counts (the realized |O|; for O-UMP this is λ).
	OutputSize int
	// Objective is the problem's objective at the *integral* plan: the
	// output size for O-UMP, the sum of frequent-pair support distances for
	// F-UMP, and the retained pair count for D-UMP.
	Objective float64
	// RelaxationObjective is the fractional LP optimum where applicable
	// (equals Objective for D-UMP).
	RelaxationObjective float64
	// Iterations counts simplex iterations (LP problems) or solver nodes
	// (D-UMP); for a decomposed solve it is the sum over components.
	Iterations int
	// Components is the number of connected components the solve decomposed
	// into (1 for a monolithic solve or a connected log).
	Components int
	// Reused counts the components whose plans were served byte-identically
	// from an Options.Comp cache instead of re-solving (0 for a cold solve).
	Reused int
	// Stats aggregates the solver-depth counters of every LP behind the
	// plan (zero-valued for purely combinatorial solves such as D-UMP).
	Stats SolveStats
}

// SolveStats aggregates lp.SolveStats across every LP solved for one plan —
// all components, including auxiliary solves such as F-UMP's per-component
// λ phase.
type SolveStats struct {
	// LPSolves counts simplex runs.
	LPSolves int
	// Refactorizations sums basis factorizations across the LPs.
	Refactorizations int
	// PresolveRows and PresolveCols sum presolve eliminations.
	PresolveRows int
	PresolveCols int
	// EtaLength is the largest peak eta-file length any LP observed.
	EtaLength int
	// EtaNonzeros is the largest peak eta-file nonzero count any LP
	// observed.
	EtaNonzeros int
	// WarmHits counts LPs that installed a warm-start basis; WarmMisses
	// counts LPs that cold-started (no basis pooled yet, or the snapshot
	// failed validation). WarmHits + WarmMisses = LPSolves.
	WarmHits   int
	WarmMisses int
}

// add accumulates o into s (sums, except the EtaLength and EtaNonzeros
// maxima).
func (s *SolveStats) add(o SolveStats) {
	s.LPSolves += o.LPSolves
	s.Refactorizations += o.Refactorizations
	s.PresolveRows += o.PresolveRows
	s.PresolveCols += o.PresolveCols
	s.EtaLength = max(s.EtaLength, o.EtaLength)
	s.EtaNonzeros = max(s.EtaNonzeros, o.EtaNonzeros)
	s.WarmHits += o.WarmHits
	s.WarmMisses += o.WarmMisses
}

// lpStats converts one solution's counters into the aggregate form.
func lpStats(sol *lp.Solution) SolveStats {
	st := SolveStats{
		LPSolves:         1,
		Refactorizations: sol.Stats.Refactorizations,
		PresolveRows:     sol.Stats.PresolveRows,
		PresolveCols:     sol.Stats.PresolveCols,
		EtaLength:        sol.Stats.EtaLength,
		EtaNonzeros:      sol.Stats.EtaNonzeros,
	}
	if sol.Stats.WarmAccepted {
		st.WarmHits = 1
	} else {
		st.WarmMisses = 1
	}
	return st
}

// solveLP runs one traced LP solve: a "lp.solve" child span (when Ctx
// carries a trace) records the problem shape and the solver-depth counters.
func (o Options) solveLP(kind string, prob *lp.Problem) (*lp.Solution, error) {
	_, sp := obs.Start(o.ctx(), "lp.solve")
	sol, err := lp.Solve(prob, o.lpOptions(kind, prob))
	if sp != nil {
		sp.SetAttr("kind", kind)
		sp.SetAttr("vars", prob.NumVariables())
		sp.SetAttr("constraints", prob.NumConstraints())
		if sol != nil {
			sp.SetAttr("status", sol.Status.String())
			sp.SetAttr("iterations", sol.Iterations)
			sp.SetAttr("refactorizations", sol.Stats.Refactorizations)
			sp.SetAttr("eta_len", sol.Stats.EtaLength)
			sp.SetAttr("eta_nnz", sol.Stats.EtaNonzeros)
			sp.SetAttr("presolve_rows", sol.Stats.PresolveRows)
			sp.SetAttr("presolve_cols", sol.Stats.PresolveCols)
			sp.SetAttr("warm_attempted", sol.Stats.WarmAttempted)
			sp.SetAttr("warm_accepted", sol.Stats.WarmAccepted)
		}
	}
	sp.End()
	return sol, err
}

// warmKey builds the pool key for one LP solve: kind, decomposition scope
// and LP shape, so snapshots only ever seed structurally compatible solves.
func (o Options) warmKey(kind string, prob *lp.Problem) string {
	scope := o.warmScope
	if scope == "" {
		scope = "mono"
	}
	return fmt.Sprintf("%s|%s|%dx%d", kind, scope, prob.NumVariables(), prob.NumConstraints())
}

// lpOptions returns o.LP with a warm-start basis attached when the pool
// holds one for this solve's key.
func (o Options) lpOptions(kind string, prob *lp.Problem) lp.Options {
	lo := o.LP
	if o.Warm != nil {
		lo.WarmStart = o.Warm.lookup(o.warmKey(kind, prob))
	}
	return lo
}

// storeWarm offers the final basis back to the pool.
func (o Options) storeWarm(kind string, prob *lp.Problem, sol *lp.Solution) {
	if o.Warm == nil || sol == nil {
		return
	}
	o.Warm.store(o.warmKey(kind, prob), sol.Basis)
}

// scoped returns a copy of o with the warm-start scope set (decompose.go
// tags monolithic and per-component solves so their bases never mix).
func (o Options) scoped(scope string) Options {
	o.warmScope = scope
	return o
}

// statusErr formats a non-optimal LP outcome. Iteration counts matter
// diagnostically: IterLimit on a degenerate component is the one failure
// mode anti-cycling cannot always price away cheaply, and callers
// (solvePerComponent) prepend the component index and shape.
func statusErr(kind string, sol *lp.Solution) error {
	if sol.Status == lp.IterLimit {
		return fmt.Errorf("ump: %s hit the simplex iteration limit after %d iterations (raise Options.LP.MaxIterations)", kind, sol.Iterations)
	}
	return fmt.Errorf("ump: %s status %v after %d iterations", kind, sol.Status, sol.Iterations)
}

// buildBase creates the LP skeleton shared by O-UMP and F-UMP: one variable
// per pair with bounds [0, c_ij] (or [0, ∞) under the ablation) and one DP
// row per user log.
func buildBase(l *searchlog.Log, cons *dp.Constraints, sense lp.Sense, obj float64, noBox bool) *lp.Problem {
	p := lp.NewProblem(sense)
	for i := 0; i < l.NumPairs(); i++ {
		up := float64(l.PairCount(i))
		if noBox {
			up = math.Inf(1)
		}
		p.AddVariable(obj, 0, up)
	}
	for _, row := range cons.Rows {
		r := p.AddConstraint(lp.LE, cons.Budget)
		for _, t := range row.Terms {
			p.SetCoef(r, t.Pair, t.Coef)
		}
	}
	return p
}

// floorCounts converts the fractional pair counts to integers, snapping
// values a hair below an integer up to it before flooring (vertex solutions
// are rational; the snap undoes simplex round-off).
func floorCounts(x []float64, n int) []int {
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		v := x[i]
		if v < 0 {
			v = 0
		}
		counts[i] = int(math.Floor(v + 1e-7))
	}
	return counts
}

// repair enforces the DP rows exactly on an integral plan via
// dp.RepairPlan. Flooring makes violations at most round-off-sized, so this
// rarely fires; it exists so Plan feasibility is an invariant rather than a
// probability.
func repair(cons *dp.Constraints, counts []int) int {
	return dp.RepairPlan(cons, counts)
}

func sum(counts []int) int {
	s := 0
	for _, c := range counts {
		s += c
	}
	return s
}

// roundUp converts floor slack back into output mass: starting from the
// floored plan, it increments pairs by one unit in order of decreasing
// fractional remainder (largest-remainder rounding) whenever the increment
// keeps every DP row within budget and the pair below its cap. Passes repeat
// until a full sweep makes no progress. Because the constraint matrix is
// non-negative, every accepted increment preserves exact feasibility, so the
// result still satisfies Theorem 1 while recovering most of the integrality
// gap that plain flooring leaves behind (significant when the fractional
// optimum spreads mass below 1 across many pairs).
//
// maxTotal, when positive, caps the total output size (used by F-UMP to
// respect the requested |O|). caps may be nil for unbounded pairs.
func roundUp(cons *dp.Constraints, counts []int, frac []float64, caps []int, maxTotal int) {
	n := len(counts)
	// Row activity and a pair→rows transpose for incremental checks.
	lhs := make([]float64, len(cons.Rows))
	type entry struct {
		row  int
		coef float64
	}
	byPair := make([][]entry, n)
	for k, row := range cons.Rows {
		for _, t := range row.Terms {
			byPair[t.Pair] = append(byPair[t.Pair], entry{row: k, coef: t.Coef})
			lhs[k] += float64(counts[t.Pair]) * t.Coef
		}
	}
	total := sum(counts)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for pass := 0; pass < 8; pass++ {
		progressed := false
		for _, i := range order {
			if maxTotal > 0 && total >= maxTotal {
				return
			}
			if caps != nil && counts[i] >= caps[i] {
				continue
			}
			ok := true
			for _, e := range byPair[i] {
				if lhs[e.row]+e.coef > cons.Budget+1e-12 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			counts[i]++
			total++
			progressed = true
			for _, e := range byPair[i] {
				lhs[e.row] += e.coef
			}
		}
		if !progressed {
			return
		}
	}
}

// fracParts extracts the fractional remainders of the LP solution relative
// to the floored plan, clamped to [0, 1).
func fracParts(x []float64, counts []int) []float64 {
	frac := make([]float64, len(counts))
	for i := range counts {
		f := x[i] - float64(counts[i])
		if f < 0 {
			f = 0
		}
		if f >= 1 {
			f = 0.999999
		}
		frac[i] = f
	}
	return frac
}

// pairCaps returns the box bounds c_ij, or nil under the ablation.
func pairCaps(l *searchlog.Log, noBox bool) []int {
	if noBox {
		return nil
	}
	caps := make([]int, l.NumPairs())
	for i := range caps {
		caps[i] = l.PairCount(i)
	}
	return caps
}

// maxOutputSizeMono solves O-UMP over the whole log in one LP. MaxOutputSize
// (decompose.go) is the public entry point; it runs this per connected
// component unless Options.NoDecompose forces the monolithic path.
func maxOutputSizeMono(l *searchlog.Log, params dp.Params, opts Options) (*Plan, error) {
	cons, err := dp.Build(l, params)
	if err != nil {
		return nil, err
	}
	if l.NumPairs() == 0 {
		return &Plan{Kind: KindOutputSize, Counts: nil, OutputSize: 0, Components: 1}, nil
	}
	prob := buildBase(l, cons, lp.Maximize, 1, opts.NoBoxConstraint)
	sol, err := opts.solveLP("oump", prob)
	if err != nil {
		return nil, fmt.Errorf("ump: O-UMP solve: %w", err)
	}
	switch sol.Status {
	case lp.Optimal:
		opts.storeWarm("oump", prob, sol)
	case lp.Unbounded:
		return nil, fmt.Errorf("ump: O-UMP unbounded (NoBoxConstraint with a degenerate log?)")
	default:
		return nil, statusErr("O-UMP", sol)
	}
	counts := floorCounts(sol.X, l.NumPairs())
	repair(cons, counts)
	roundUp(cons, counts, fracParts(sol.X, counts), pairCaps(l, opts.NoBoxConstraint), 0)
	plan := &Plan{
		Kind:                KindOutputSize,
		Counts:              counts,
		OutputSize:          sum(counts),
		RelaxationObjective: sol.Objective,
		Iterations:          sol.Iterations,
		Components:          1,
		Stats:               lpStats(sol),
	}
	plan.Objective = float64(plan.OutputSize)
	return plan, nil
}

// frequentPairs lists the pair indices of l whose input support, measured
// against inSize tuples, reaches minSupport, together with those supports.
// For a component sub-log inSize is the *parent* corpus size, so the
// frequent set matches the monolithic model exactly (component pair totals
// equal parent pair totals — every user holding a pair lies in its
// component).
func frequentPairs(l *searchlog.Log, minSupport, inSize float64) (frequent []int, supIn []float64) {
	for i := 0; i < l.NumPairs(); i++ {
		sup := float64(l.PairCount(i)) / inSize
		if sup < minSupport {
			continue
		}
		frequent = append(frequent, i)
		supIn = append(supIn, sup)
	}
	return frequent, supIn
}

// SupportDistance returns the F-UMP objective realized by an integral plan:
// the sum over l's frequent pairs (input support ≥ minSupport against l's
// own size) of |x_f/|O| − c_f/|D||, where |O| = Σ counts. An empty output
// realizes the maximal distance Σ_f c_f/|D|. It is exported for the
// sanitizer, which must recompute the objective after §4.2 noise perturbs
// the counts.
func SupportDistance(l *searchlog.Log, minSupport float64, counts []int) float64 {
	inSize := float64(l.Size())
	frequent, supIn := frequentPairs(l, minSupport, inSize)
	outSize := sum(counts)
	realized := 0.0
	if outSize > 0 {
		for f, i := range frequent {
			realized += math.Abs(float64(counts[i])/float64(outSize) - supIn[f])
		}
	} else {
		for _, s := range supIn {
			realized += s
		}
	}
	return realized
}

// frequentCore solves the F-UMP LP over l (the whole log, or one component
// sub-log) and returns the integral plan without a realized objective —
// callers compute that where the full output is known. frequent/supIn come
// from frequentPairs; invO is 1/|O| of the *global* requested output size
// (the linearization scale of the y rows); alloc is the portion of |O|
// assigned to l, the right-hand side of the Σx equality row.
func frequentCore(l *searchlog.Log, cons *dp.Constraints, frequent []int, supIn []float64, invO float64, alloc int, opts Options) (*Plan, error) {
	prob := buildBase(l, cons, lp.Minimize, 0, opts.NoBoxConstraint)

	// Σ x_ij = alloc.
	eq := prob.AddConstraint(lp.EQ, float64(alloc))
	for i := 0; i < l.NumPairs(); i++ {
		prob.SetCoef(eq, i, 1)
	}

	// One distance variable per frequent pair with the two linearization
	// rows y ≥ ±(x/|O| − c/|D|).
	for f, i := range frequent {
		y := prob.AddVariable(1, 0, math.Inf(1))
		r1 := prob.AddConstraint(lp.LE, supIn[f]) // x/|O| − y ≤ c/|D|
		prob.SetCoef(r1, i, invO)
		prob.SetCoef(r1, y, -1)
		r2 := prob.AddConstraint(lp.LE, -supIn[f]) // −x/|O| − y ≤ −c/|D|
		prob.SetCoef(r2, i, -invO)
		prob.SetCoef(r2, y, -1)
	}

	sol, err := opts.solveLP("fump", prob)
	if err != nil {
		return nil, fmt.Errorf("ump: F-UMP solve: %w", err)
	}
	if sol.Status == lp.Infeasible {
		return nil, fmt.Errorf("ump: F-UMP infeasible: output size %d exceeds λ for these parameters", alloc)
	}
	if sol.Status != lp.Optimal {
		return nil, statusErr("F-UMP", sol)
	}
	opts.storeWarm("fump", prob, sol)
	counts := floorCounts(sol.X, l.NumPairs())
	repair(cons, counts)
	// Round-up priority: frequent pairs first (a unit of mass on a frequent
	// pair moves the objective; on an infrequent pair it can only create a
	// spurious output-frequent pair and hurt Precision). Boosting their
	// remainders by 1 orders all frequent pairs ahead of all infrequent
	// ones while preserving remainder order within each class.
	frac := fracParts(sol.X, counts)
	for _, i := range frequent {
		frac[i] += 1
	}
	roundUp(cons, counts, frac, pairCaps(l, opts.NoBoxConstraint), alloc)
	return &Plan{
		Kind:                KindFrequent,
		Counts:              counts,
		OutputSize:          sum(counts),
		RelaxationObjective: sol.Objective,
		Iterations:          sol.Iterations,
		Components:          1,
		Stats:               lpStats(sol),
	}, nil
}

// frequentSupportMono solves F-UMP over the whole log in one LP.
// FrequentSupport (decompose.go) is the public entry point.
func frequentSupportMono(l *searchlog.Log, params dp.Params, minSupport float64, outputSize int, opts Options) (*Plan, error) {
	cons, err := dp.Build(l, params)
	if err != nil {
		return nil, err
	}
	if l.NumPairs() == 0 {
		return nil, fmt.Errorf("ump: empty log cannot meet output size %d", outputSize)
	}
	frequent, supIn := frequentPairs(l, minSupport, float64(l.Size()))
	plan, err := frequentCore(l, cons, frequent, supIn, 1/float64(outputSize), outputSize, opts)
	if err != nil {
		return nil, err
	}
	// Realized objective at the integral plan.
	plan.Objective = SupportDistance(l, minSupport, plan.Counts)
	return plan, nil
}

// diversityMono solves D-UMP over the whole log in one BIP. Diversity
// (decompose.go) is the public entry point. Note the default SPE heuristic
// is *not* decomposition-invariant: it eliminates the globally largest
// coefficient even when that column's rows are already satisfied, so the
// per-component solve retains at least as many pairs (see DESIGN.md §6).
func diversityMono(l *searchlog.Log, params dp.Params, opts Options) (*Plan, error) {
	cons, err := dp.Build(l, params)
	if err != nil {
		return nil, err
	}
	name := opts.Solver
	if name == "" {
		name = "spe"
	}
	solver, err := bip.New(name)
	if err != nil {
		return nil, err
	}
	prob := &bip.Problem{NumCols: l.NumPairs(), Rows: make([][]bip.Term, len(cons.Rows)), RHS: make([]float64, len(cons.Rows))}
	for k, row := range cons.Rows {
		prob.RHS[k] = cons.Budget
		terms := make([]bip.Term, len(row.Terms))
		for t, term := range row.Terms {
			terms[t] = bip.Term{Col: term.Pair, Coef: term.Coef}
		}
		prob.Rows[k] = terms
	}
	_, sp := obs.Start(opts.ctx(), "bip.solve")
	sol, err := solver.Solve(prob)
	if sp != nil {
		sp.SetAttr("solver", name)
		sp.SetAttr("cols", prob.NumCols)
		if sol != nil {
			sp.SetAttr("nodes", sol.Nodes)
			sp.SetAttr("retained", sol.Objective)
		}
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("ump: D-UMP (%s): %w", name, err)
	}
	counts := make([]int, l.NumPairs())
	for i, keep := range sol.Y {
		if keep {
			counts[i] = 1
		}
	}
	repair(cons, counts)
	plan := &Plan{
		Kind:                KindDiversity,
		Counts:              counts,
		OutputSize:          sum(counts),
		RelaxationObjective: float64(sol.Objective),
		Iterations:          sol.Nodes,
		Components:          1,
	}
	plan.Objective = float64(plan.OutputSize)
	return plan, nil
}

// Verify re-audits a plan against the log it was built from. It is a thin
// wrapper over dp.VerifyLog so callers can assert the package invariant.
func Verify(l *searchlog.Log, params dp.Params, plan *Plan) error {
	return dp.VerifyLog(l, params, plan.Counts)
}
