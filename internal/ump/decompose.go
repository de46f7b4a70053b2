package ump

// This file is the package's front door: every utility-maximizing problem
// solves over a partition of the log into independent components and
// stitches the per-component plans back together. Theorem 1's constraints
// couple pairs only through shared users — each row is one user log, and a
// user's pairs all lie in the user's connected component of the user–pair
// incidence graph — so every problem whose objective is separable across
// pairs splits losslessly by connected component (DESIGN.md §6):
//
//   - O-UMP: fully separable; λ and the plan are additive.
//   - D-UMP: the BIP optimum is additive. The default SPE heuristic is not
//     ordering-invariant across components (it eliminates the globally
//     largest coefficient even from satisfied components), so the
//     per-component solve retains ≥ as many pairs as the whole-log one.
//   - Q-UMP: candidates (one pair per distinct query) are selected globally
//     — a query's pairs can span components — then inserted per component;
//     the greedy outcome equals the whole-log one exactly.
//   - F-UMP: the Σx = |O| row spans components, so |O| is allocated across
//     components proportionally to their per-component λ (largest-remainder
//     rounding). The allocation is a heuristic: the decomposed optimum is
//     the whole-log one restricted to that allocation, hence ≥ it in
//     distance. The linearization scale 1/|O| and the frequent-pair set use
//     the global corpus, so the model is otherwise identical. A single
//     component takes all of |O| and skips the λ phase.
//   - C-UMP: separable once the scale anchor λ is fixed; the decomposed
//     path anchors against the sum of per-component λ_LP (within FP
//     round-off of the whole-log anchor).
//
// A connected log is one component sharing the parent *Log, so it solves
// the same single LP, BIP or greedy as the whole log. Options.NoDecompose
// and an empty log use the one-component partition partition.Whole, which
// keeps the whole-log solve as the decomposition tests' reference.
//
// Per-component solves run concurrently on a bounded worker pool
// (Options.Parallelism, default GOMAXPROCS). Plans are invariant in the
// parallelism level: components are solved independently and stitched in a
// deterministic order, so only wall-clock changes.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"dpslog/internal/dp"
	"dpslog/internal/obs"
	"dpslog/internal/partition"
	"dpslog/internal/searchlog"
)

// workerCount resolves Options.Parallelism against the component count.
func workerCount(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// compScope names a component's warm-start scope. The component count is
// part of the scope so a corpus whose decomposition changes (e.g. after
// preprocessing differences) never reuses stale per-component bases.
func compScope(ci, n int) string {
	return fmt.Sprintf("c%d.%d", ci, n)
}

// components returns the partition a solve runs over: the connected
// components of l, or the one-component partition under
// Options.NoDecompose and for an empty log (which has no components).
func components(l *searchlog.Log, opts Options) []partition.Component {
	if opts.NoDecompose || l.NumPairs() == 0 {
		return partition.Whole(l)
	}
	return partition.DecomposeCtx(opts.ctx(), l)
}

// solvePerComponent runs solve for every component on a bounded worker pool
// and returns the plans in component order (deterministic regardless of
// scheduling). The first error by component index wins and is annotated
// with the component's shape.
func solvePerComponent(comps []partition.Component, opts Options, solve func(o Options, ci int, c *partition.Component) (*Plan, error)) ([]*Plan, error) {
	plans := make([]*Plan, len(comps))
	errs := make([]error, len(comps))
	workers := workerCount(opts.Parallelism, len(comps))
	// Each component solve gets its own "ump.component" span, and the inner
	// LP spans nest under it via the Options copy. Child spans append under
	// the shared parent span's lock, so concurrent component goroutines
	// record safely (covered by the -race span tests).
	traced := func(ci int) (*Plan, error) {
		cctx, sp := obs.Start(opts.ctx(), "ump.component")
		sp.SetAttr("component", ci)
		sp.SetAttr("pairs", comps[ci].Log.NumPairs())
		sp.SetAttr("users", comps[ci].Log.NumUsers())
		defer sp.End()
		co := opts
		co.Ctx = cctx
		return solve(co, ci, &comps[ci])
	}
	if workers == 1 {
		for ci := range comps {
			plans[ci], errs[ci] = traced(ci)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for ci := range comps {
			wg.Add(1)
			sem <- struct{}{}
			go func(ci int) {
				defer wg.Done()
				defer func() { <-sem }()
				plans[ci], errs[ci] = traced(ci)
			}(ci)
		}
		wg.Wait()
	}
	for ci, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ump: component %d/%d (%d pairs, %d users): %w",
				ci+1, len(comps), comps[ci].Log.NumPairs(), comps[ci].Log.NumUsers(), err)
		}
	}
	return plans, nil
}

// stitch scatters per-component plans back into a parent-indexed plan,
// summing sizes, objectives and iteration counts in component order.
func stitch(kind Kind, l *searchlog.Log, comps []partition.Component, plans []*Plan) *Plan {
	plan := &Plan{
		Kind:       kind,
		Counts:     make([]int, l.NumPairs()),
		Components: len(comps),
	}
	for ci, p := range plans {
		comps[ci].Scatter(p.Counts, plan.Counts)
		plan.OutputSize += p.OutputSize
		plan.Objective += p.Objective
		plan.RelaxationObjective += p.RelaxationObjective
		plan.Iterations += p.Iterations
		plan.Reused += p.Reused
		plan.Stats.add(p.Stats)
	}
	return plan
}

// outputSizeComponent is the per-component O-UMP solve of a partition into
// n components. MaxOutputSize and the λ phases of F-UMP and C-UMP all run
// it, so they share its component-cache entries.
func outputSizeComponent(params dp.Params, n int) func(Options, int, *partition.Component) (*Plan, error) {
	return func(o Options, ci int, c *partition.Component) (*Plan, error) {
		return o.cachedComponent("oump", params, "", c, func() (*Plan, error) {
			return maxOutputSizeMono(c.Log, params, o.scoped(compScope(ci, n)))
		})
	}
}

// MaxOutputSize solves O-UMP: the maximum differentially private output size
// λ for the preprocessed log under the given parameters. The solve runs per
// connected component (concurrently, bounded by Options.Parallelism) and is
// exactly additive: no Theorem-1 row spans two components and the objective
// Σ x_ij is separable.
func MaxOutputSize(l *searchlog.Log, params dp.Params, opts Options) (*Plan, error) {
	comps := components(l, opts)
	plans, err := solvePerComponent(comps, opts, outputSizeComponent(params, len(comps)))
	if err != nil {
		return nil, err
	}
	plan := stitch(KindOutputSize, l, comps, plans)
	plan.Objective = float64(plan.OutputSize)
	return plan, nil
}

// Diversity solves D-UMP: maximize the number of distinct retained pairs.
// Following Theorem 2, the MIP is reduced to the pure BIP of Equation 8 and
// the selected pairs receive an output count of one (a single multinomial
// trial), exactly as §5.3 prescribes. The BIP solves per connected
// component; with an exact solver the retained-pair count is exactly the
// whole-log one, and with the SPE heuristics it is at least as large.
func Diversity(l *searchlog.Log, params dp.Params, opts Options) (*Plan, error) {
	comps := components(l, opts)
	plans, err := solvePerComponent(comps, opts, func(o Options, _ int, c *partition.Component) (*Plan, error) {
		solver := o.Solver
		if solver == "" {
			solver = "spe"
		}
		return o.cachedComponent("dump", params, solver, c, func() (*Plan, error) {
			return diversityMono(c.Log, params, o)
		})
	})
	if err != nil {
		return nil, err
	}
	plan := stitch(KindDiversity, l, comps, plans)
	plan.Objective = float64(plan.OutputSize)
	return plan, nil
}

// QueryDiversity maximizes the number of distinct *queries* (rather than
// query-url pairs) retained in the output — the variant §5.3 notes can be
// modeled "in a similar way". Each query needs only its cheapest pair
// retained, so the greedy works on one candidate pair per query (the pair
// whose largest coefficient is smallest), inserting queries in ascending
// sensitivity while every user budget holds. The returned plan assigns
// count 1 to each selected pair, like D-UMP.
//
// Candidates are selected globally — a query's pairs can span components —
// and inserted per component, which reproduces the whole-log greedy
// exactly (the insertion order restricted to a component is the component's
// own insertion order, and feasibility checks touch only rows of the
// candidate's component).
func QueryDiversity(l *searchlog.Log, params dp.Params, opts Options) (*Plan, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if !searchlog.IsPreprocessed(l) {
		return nil, dp.ErrNotPreprocessed
	}
	comps := components(l, opts)
	// Global candidate selection needs only each pair's worst coefficient,
	// computable straight from the histogram — restriction preserves the
	// coefficients, so no full parent constraint system is built; each
	// component builds its own below.
	cands := queryCandidates(l, maxCoefFromLog(l))
	// Group candidates by component, remapped to local pair indices. The
	// per-component sort by (maxCoef, local index) preserves the global
	// order: local index order is parent order restricted.
	compOfPair := make([]int, l.NumPairs())
	localOfPair := make([]int, l.NumPairs())
	for ci := range comps {
		for j, pi := range comps[ci].Pairs {
			compOfPair[pi] = ci
			localOfPair[pi] = j
		}
	}
	byComp := make([][]queryCand, len(comps))
	for _, c := range cands {
		ci := compOfPair[c.pair]
		byComp[ci] = append(byComp[ci], queryCand{pair: localOfPair[c.pair], maxCoef: c.maxCoef})
	}
	for ci := range byComp {
		cc := byComp[ci]
		sort.Slice(cc, func(a, b int) bool {
			if cc[a].maxCoef != cc[b].maxCoef {
				return cc[a].maxCoef < cc[b].maxCoef
			}
			return cc[a].pair < cc[b].pair
		})
	}
	plans, err := solvePerComponent(comps, opts, func(_ Options, ci int, c *partition.Component) (*Plan, error) {
		ccons, err := dp.Build(c.Log, params)
		if err != nil {
			return nil, err
		}
		counts := make([]int, c.Log.NumPairs())
		retained := greedyInsertCands(ccons, byComp[ci], counts)
		return &Plan{
			Kind:                KindQueryDiversity,
			Counts:              counts,
			OutputSize:          retained,
			Objective:           float64(retained),
			RelaxationObjective: float64(retained),
			Components:          1,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return stitch(KindQueryDiversity, l, comps, plans), nil
}

// FrequentSupport solves F-UMP: minimize the sum of support distances of the
// input's frequent pairs (support ≥ minSupport) at the fixed output size
// outputSize, which must lie in (0, λ]. The integral plan's realized size
// can fall slightly below outputSize because of flooring.
//
// The decomposed solve allocates outputSize across connected components in
// proportion to each component's λ (its maximum private output size), then
// solves each component at its allocation with the global linearization
// scale and frequent-pair set. The allocation is a heuristic — the paper's
// Σx = |O| row genuinely couples components — so the decomposed distance is
// an upper bound on the whole-log one. A single component (a connected log,
// or the whole log under NoDecompose) takes all of outputSize without the λ
// phase: its F-UMP LP is infeasible exactly when outputSize exceeds its
// λ_LP, so it solves one LP, the whole-log model.
func FrequentSupport(l *searchlog.Log, params dp.Params, minSupport float64, outputSize int, opts Options) (*Plan, error) {
	if !(minSupport > 0 && minSupport <= 1) {
		return nil, fmt.Errorf("ump: minimum support must be in (0, 1], got %g", minSupport)
	}
	if outputSize <= 0 {
		return nil, fmt.Errorf("ump: output size must be positive, got %d", outputSize)
	}
	comps := components(l, opts)
	alloc := []int{outputSize}
	var lamPlans []*Plan
	if len(comps) > 1 {
		// Phase 1: per-component λ, for the allocation. Capacities come from
		// the *fractional* λ_LP (floored): any integer allocation s_c ≤
		// ⌊λ_c^LP⌋ is LP-feasible for its component (scale the λ-achieving
		// solution down), and the fractional bound is never below the
		// integral plan's size, so the feasibility precheck stays as close
		// to the whole-log one (outputSize ≤ λ_LP) as an integral allocation
		// permits. The λ solves are plain per-component O-UMP, so they share
		// the "oump" component-cache entries with MaxOutputSize — after an
		// append, only the components the delta touched re-derive their λ.
		var err error
		lamPlans, err = solvePerComponent(comps, opts, outputSizeComponent(params, len(comps)))
		if err != nil {
			return nil, err
		}
		lambdas := make([]int, len(comps))
		totalLam := 0
		for ci, p := range lamPlans {
			lambdas[ci] = int(math.Floor(p.RelaxationObjective + 1e-7))
			totalLam += lambdas[ci]
		}
		if outputSize > totalLam {
			return nil, fmt.Errorf("ump: F-UMP infeasible: output size %d exceeds λ = %d for these parameters", outputSize, totalLam)
		}
		alloc = allocateProportional(outputSize, lambdas)
	}

	// Phase 2: per-component F-UMP at the allocated sizes. The frequent set
	// and supports are measured against the parent corpus (component pair
	// totals equal parent pair totals), and the y rows scale by the global
	// 1/|O|, so the component LPs are exactly the whole-log model plus the
	// per-component allocation rows.
	inSize := float64(l.Size())
	invO := 1 / float64(outputSize)
	plans, err := solvePerComponent(comps, opts, func(o Options, ci int, c *partition.Component) (*Plan, error) {
		if alloc[ci] == 0 {
			return &Plan{Kind: KindFrequent, Counts: make([]int, c.Log.NumPairs()), Components: 1}, nil
		}
		ccons, err := dp.Build(c.Log, params)
		if err != nil {
			return nil, err
		}
		if c.Log.NumPairs() == 0 {
			return nil, fmt.Errorf("ump: empty log cannot meet output size %d", outputSize)
		}
		frequent, supIn := frequentPairs(c.Log, minSupport, inSize)
		return frequentCore(c.Log, ccons, frequent, supIn, invO, alloc[ci], o.scoped(compScope(ci, len(comps))))
	})
	if err != nil {
		return nil, err
	}
	plan := stitch(KindFrequent, l, comps, plans)
	for _, p := range lamPlans {
		plan.Stats.add(p.Stats)
		plan.Reused += p.Reused
	}
	// Realized objective at the stitched integral plan, over the global
	// frequent set and realized |O|.
	plan.Objective = SupportDistance(l, minSupport, plan.Counts)
	return plan, nil
}

// Combined solves the joint utility-maximizing problem: unlike F-UMP it
// does not fix the output size; the LP itself trades release mass against
// frequent-pair support fidelity:
//
//	max  w_size · Σx/|D|  −  w_dist · Σ_freq y_f
//	s.t. Theorem-1 rows, 0 ≤ x ≤ c,
//	     y_f ≥ ±(x_f/|D_scale| − c_f/|D|)   for every frequent pair f
//
// Because |O| is variable, the support linearization anchors the output
// support against the *input* scale (x_f/|D|·γ with γ = |D|/λ_LP), which
// keeps the model linear; the realized objective is recomputed exactly on
// the integral plan.
//
// The model has no row spanning components, so the decomposed solve is
// exact once the anchor λ_LP is fixed; the decomposed path anchors against
// the sum of per-component λ_LP, which agrees with the whole-log anchor up
// to simplex round-off.
func Combined(l *searchlog.Log, params dp.Params, minSupport float64, w CombinedWeights, opts Options) (*Plan, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if !(minSupport > 0 && minSupport <= 1) {
		return nil, fmt.Errorf("ump: minimum support must be in (0, 1], got %g", minSupport)
	}
	comps := components(l, opts)
	// Phase 1: the λ anchor, from the per-component O-UMP relaxations
	// (cache-shared with MaxOutputSize, like F-UMP's phase 1).
	lamPlans, err := solvePerComponent(comps, opts, outputSizeComponent(params, len(comps)))
	if err != nil {
		return nil, err
	}
	lam := 0.0
	for _, p := range lamPlans {
		lam += p.RelaxationObjective
	}
	if lam < 1 {
		// Nothing can be released; the λ plan (empty) is the optimum.
		plan := stitch(KindCombined, l, comps, lamPlans)
		plan.Objective = 0
		return plan, nil
	}
	inSize := float64(l.Size())
	sizeCoef := w.SizeWeight / inSize
	invScale := 1 / lam
	plans, err := solvePerComponent(comps, opts, func(o Options, ci int, c *partition.Component) (*Plan, error) {
		ccons, err := dp.Build(c.Log, params)
		if err != nil {
			return nil, err
		}
		frequent, supIn := frequentPairs(c.Log, minSupport, inSize)
		return combinedCore(c.Log, ccons, frequent, supIn, sizeCoef, w.DistanceWeight, invScale, o.scoped(compScope(ci, len(comps))))
	})
	if err != nil {
		return nil, err
	}
	plan := stitch(KindCombined, l, comps, plans)
	for _, p := range lamPlans {
		plan.Stats.add(p.Stats)
		plan.Reused += p.Reused
	}
	dist := SupportDistance(l, minSupport, plan.Counts)
	plan.Objective = w.SizeWeight*float64(plan.OutputSize)/inSize - w.DistanceWeight*dist
	return plan, nil
}

// allocateProportional splits total into per-component shares proportional
// to the capacities, capped by them, with largest-remainder rounding; the
// shares sum to total exactly whenever total ≤ Σ capacities. Deterministic:
// ties break by component index.
func allocateProportional(total int, capacities []int) []int {
	n := len(capacities)
	shares := make([]int, n)
	capSum := 0
	for _, c := range capacities {
		capSum += c
	}
	if capSum == 0 || total <= 0 {
		return shares
	}
	if total >= capSum {
		copy(shares, capacities)
		return shares
	}
	type rem struct {
		ci   int
		frac float64
	}
	rems := make([]rem, 0, n)
	assigned := 0
	for ci, c := range capacities {
		exact := float64(total) * float64(c) / float64(capSum)
		s := int(math.Floor(exact))
		if s > c {
			s = c
		}
		shares[ci] = s
		assigned += s
		rems = append(rems, rem{ci: ci, frac: exact - float64(s)})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	// Hand out the remainder by descending fractional part, skipping full
	// components; sweep repeatedly in case caps bind.
	for assigned < total {
		progressed := false
		for _, r := range rems {
			if assigned >= total {
				break
			}
			if shares[r.ci] < capacities[r.ci] {
				shares[r.ci]++
				assigned++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return shares
}
