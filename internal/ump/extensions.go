package ump

// This file implements the three extensions the paper's §7 sketches as
// future work:
//
//   - Combined: a single joint objective trading output size against
//     frequent-pair fidelity ("combining different utility notions to
//     create a single joint objective... akin to a multi-objective
//     optimization");
//   - MinPrivacy: the dual "privacy breach-minimizing problem which asks
//     for minimal privacy loss while satisfying a certain utility";
//   - QueryDiversity: the query-level diversity variant §5.3 mentions
//     ("we can also model search query diversity maximizing problem in a
//     similar way").

import (
	"fmt"
	"math"
	"sort"

	"dpslog/internal/dp"
	"dpslog/internal/lp"
	"dpslog/internal/searchlog"
)

// CombinedWeights balances the joint objective of Combined: maximize
// SizeWeight·(Σx / Σc) − DistanceWeight·(Σ frequent support distances).
// Both weights must be non-negative and not both zero.
type CombinedWeights struct {
	SizeWeight     float64
	DistanceWeight float64
}

// Validate checks the weight ranges.
func (w CombinedWeights) Validate() error {
	if w.SizeWeight < 0 || w.DistanceWeight < 0 {
		return fmt.Errorf("ump: combined weights must be non-negative, got %+v", w)
	}
	if w.SizeWeight == 0 && w.DistanceWeight == 0 {
		return fmt.Errorf("ump: at least one combined weight must be positive")
	}
	return nil
}

// combinedCore solves the joint LP over l (the whole log, or one component
// sub-log) and returns the integral plan without a realized objective.
// sizeCoef is the per-unit objective weight w_size/|D| (|D| of the *parent*
// corpus, so component objectives sum to the monolithic one); invScale is
// 1/λ with the global anchor λ.
func combinedCore(l *searchlog.Log, cons *dp.Constraints, frequent []int, supIn []float64, sizeCoef, distWeight, invScale float64, opts Options) (*Plan, error) {
	prob := buildBase(l, cons, lp.Maximize, sizeCoef, opts.NoBoxConstraint)
	for f, i := range frequent {
		y := prob.AddVariable(-distWeight, 0, math.Inf(1))
		r1 := prob.AddConstraint(lp.LE, supIn[f]) // x/λ − y ≤ c/|D|
		prob.SetCoef(r1, i, invScale)
		prob.SetCoef(r1, y, -1)
		r2 := prob.AddConstraint(lp.LE, -supIn[f]) // −x/λ − y ≤ −c/|D|
		prob.SetCoef(r2, i, -invScale)
		prob.SetCoef(r2, y, -1)
	}
	sol, err := opts.solveLP("cump", prob)
	if err != nil {
		return nil, fmt.Errorf("ump: combined solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, statusErr("C-UMP", sol)
	}
	opts.storeWarm("cump", prob, sol)
	counts := floorCounts(sol.X, l.NumPairs())
	repair(cons, counts)
	frac := fracParts(sol.X, counts)
	for _, i := range frequent {
		frac[i] += 1
	}
	roundUp(cons, counts, frac, pairCaps(l, opts.NoBoxConstraint), 0)
	return &Plan{
		Kind:                KindCombined,
		Counts:              counts,
		OutputSize:          sum(counts),
		RelaxationObjective: sol.Objective,
		Iterations:          sol.Iterations,
		Components:          1,
		Stats:               lpStats(sol),
	}, nil
}

// MinPrivacyResult is the outcome of the breach-minimizing problem.
type MinPrivacyResult struct {
	// Plan achieves the requested utility at minimal exposure.
	Plan *Plan
	// Epsilon is the smallest per-user budget z* = max_k Σ x·ln t_ijk
	// supporting the target, i.e. the minimal ε for which the plan is
	// (ε, δ)-feasible with ln 1/(1−δ) ≥ ε.
	Epsilon float64
}

// MinPrivacy solves the paper's §7 dual problem: given a required output
// size, find the plan minimizing the privacy exposure — the largest
// per-user-log constraint activity:
//
//	min  z
//	s.t. Σ_{(i,j)∈A_k} x_ij·ln t_ijk ≤ z   for every user log
//	     Σ x_ij = target,  0 ≤ x_ij ≤ c_ij
//
// The optimal z* is the smallest ε (with δ satisfying ln 1/(1−δ) ≥ ε) under
// which the target utility is achievable. The log must be preprocessed.
func MinPrivacy(l *searchlog.Log, target int, opts Options) (*MinPrivacyResult, error) {
	if target <= 0 {
		return nil, fmt.Errorf("ump: target output size must be positive, got %d", target)
	}
	if !searchlog.IsPreprocessed(l) {
		return nil, dp.ErrNotPreprocessed
	}
	totalCap := 0
	for i := 0; i < l.NumPairs(); i++ {
		totalCap += l.PairCount(i)
	}
	if !opts.NoBoxConstraint && target > totalCap {
		return nil, fmt.Errorf("ump: target %d exceeds the total input mass %d", target, totalCap)
	}

	prob := lp.NewProblem(lp.Minimize)
	for i := 0; i < l.NumPairs(); i++ {
		up := float64(l.PairCount(i))
		if opts.NoBoxConstraint {
			up = math.Inf(1)
		}
		prob.AddVariable(0, 0, up)
	}
	z := prob.AddVariable(1, 0, math.Inf(1))
	for k := 0; k < l.NumUsers(); k++ {
		u := l.User(k)
		row := prob.AddConstraint(lp.LE, 0) // Σ x·lnt − z ≤ 0
		for _, up := range u.Pairs {
			prob.SetCoef(row, up.Pair, dp.Coef(l.PairCount(up.Pair), up.Count))
		}
		prob.SetCoef(row, z, -1)
	}
	eq := prob.AddConstraint(lp.EQ, float64(target))
	for i := 0; i < l.NumPairs(); i++ {
		prob.SetCoef(eq, i, 1)
	}
	sol, err := opts.solveLP("minpriv", prob)
	if err != nil {
		return nil, fmt.Errorf("ump: min-privacy solve: %w", err)
	}
	if sol.Status == lp.Infeasible {
		return nil, fmt.Errorf("ump: target output size %d is infeasible", target)
	}
	if sol.Status != lp.Optimal {
		return nil, statusErr("min-privacy", sol)
	}
	opts.storeWarm("minpriv", prob, sol)
	zLP := sol.Objective // fractional lower bound on the exposure

	// Integral completion. The fractional optimum spreads mass thinly, so
	// flooring it can lose everything; instead, binary-search the smallest
	// budget b ≥ z_LP at which a cheapest-first integral fill reaches the
	// target, then report that fill and its exact realized exposure.
	caps := pairCaps(l, opts.NoBoxConstraint)
	rows := constraintRows(l)
	fill := func(budget float64) []int {
		counts := make([]int, l.NumPairs())
		cons := &dp.Constraints{Rows: rows, Budget: budget, NumPairs: l.NumPairs()}
		fillCheapestFirst(cons, counts, caps, target, l)
		return counts
	}
	lo := math.Max(zLP, 1e-9)
	hi := lo
	var counts []int
	for iter := 0; iter < 80; iter++ {
		counts = fill(hi)
		if sum(counts) >= target {
			break
		}
		hi *= 2
	}
	if sum(counts) < target {
		return nil, fmt.Errorf("ump: integral fill cannot reach target %d (max %d)", target, sum(counts))
	}
	for iter := 0; iter < 50 && hi-lo > 1e-9*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if c := fill(mid); sum(c) >= target {
			hi, counts = mid, c
		} else {
			lo = mid
		}
	}

	// Exact exposure of the final integral plan.
	cons := &dp.Constraints{Rows: rows, Budget: math.Inf(1), NumPairs: l.NumPairs()}
	realized := 0.0
	for k := range cons.Rows {
		if lhs := cons.LHS(k, counts); lhs > realized {
			realized = lhs
		}
	}
	// MinPrivacy is not component-decomposed: the shared exposure variable z
	// (a minimax objective) and the Σx = target row both couple every
	// component, so no per-component split is exact.
	plan := &Plan{
		Kind:                KindMinPrivacy,
		Counts:              counts,
		OutputSize:          sum(counts),
		Objective:           realized,
		RelaxationObjective: zLP,
		Iterations:          sol.Iterations,
		Components:          1,
		Stats:               lpStats(sol),
	}
	return &MinPrivacyResult{Plan: plan, Epsilon: realized}, nil
}

// constraintRows builds the Theorem-1 rows of a preprocessed log without a
// budget (callers attach budgets as needed).
func constraintRows(l *searchlog.Log) []dp.Row {
	rows := make([]dp.Row, l.NumUsers())
	for k := 0; k < l.NumUsers(); k++ {
		u := l.User(k)
		row := dp.Row{User: k, Terms: make([]dp.Term, 0, len(u.Pairs))}
		for _, up := range u.Pairs {
			row.Terms = append(row.Terms, dp.Term{Pair: up.Pair, Coef: dp.Coef(l.PairCount(up.Pair), up.Count)})
		}
		rows[k] = row
	}
	return rows
}

// fillCheapestFirst adds units to the plan cheapest-pair-first (ascending
// worst-case coefficient) while every row stays within the budget, until
// the target size is reached or no pair can take another unit.
func fillCheapestFirst(cons *dp.Constraints, counts []int, caps []int, target int, l *searchlog.Log) {
	n := len(counts)
	maxCoef := make([]float64, n)
	for _, row := range cons.Rows {
		for _, t := range row.Terms {
			if t.Coef > maxCoef[t.Pair] {
				maxCoef[t.Pair] = t.Coef
			}
		}
	}
	// Cheapest pairs get the highest round-up priority.
	frac := make([]float64, n)
	for i := range frac {
		frac[i] = -maxCoef[i]
	}
	type entry struct {
		row  int
		coef float64
	}
	byPair := make([][]entry, n)
	lhs := make([]float64, len(cons.Rows))
	for k, row := range cons.Rows {
		for _, t := range row.Terms {
			byPair[t.Pair] = append(byPair[t.Pair], entry{row: k, coef: t.Coef})
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	total := sum(counts)
	for {
		progressed := false
		for _, i := range order {
			if total >= target {
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

// queryCand is one query's candidate pair for Q-UMP: the query's cheapest
// pair by worst-case coefficient.
type queryCand struct {
	pair    int
	maxCoef float64
}

// maxCoefFromLog returns each pair's largest constraint coefficient — the
// pair's worst-case per-unit privacy cost across user logs — straight from
// the histogram (max entry per pair), without materializing a constraint
// system. The log must be preprocessed, or the coefficient is +Inf.
func maxCoefFromLog(l *searchlog.Log) []float64 {
	maxCoef := make([]float64, l.NumPairs())
	for i := 0; i < l.NumPairs(); i++ {
		p := l.Pair(i)
		_, top := p.MaxEntry()
		maxCoef[i] = dp.Coef(p.Total, top)
	}
	return maxCoef
}

// queryCandidates picks one candidate pair per distinct query — the pair
// whose largest coefficient is smallest (ties to the lower pair index, via
// the ascending scan) — sorted by ascending sensitivity with a
// deterministic pair-index tie-break. The sort order is preserved under
// restriction to a component, which is what makes the per-component greedy
// reproduce the monolithic one exactly.
func queryCandidates(l *searchlog.Log, maxCoef []float64) []queryCand {
	best := map[string]queryCand{}
	for i := 0; i < l.NumPairs(); i++ {
		q := l.Pair(i).Query
		if c, ok := best[q]; !ok || maxCoef[i] < c.maxCoef {
			best[q] = queryCand{pair: i, maxCoef: maxCoef[i]}
		}
	}
	cands := make([]queryCand, 0, len(best))
	for _, c := range best {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].maxCoef != cands[b].maxCoef {
			return cands[a].maxCoef < cands[b].maxCoef
		}
		return cands[a].pair < cands[b].pair
	})
	return cands
}

// greedyInsertCands walks the candidates in order, setting each candidate
// pair's count to one whenever every touched user budget still holds, and
// returns the number retained.
func greedyInsertCands(cons *dp.Constraints, cands []queryCand, counts []int) int {
	lhs := make([]float64, len(cons.Rows))
	// pair → (row, coef) transpose for incremental feasibility.
	type entry struct {
		row  int
		coef float64
	}
	byPair := make([][]entry, len(counts))
	for k, row := range cons.Rows {
		for _, t := range row.Terms {
			byPair[t.Pair] = append(byPair[t.Pair], entry{row: k, coef: t.Coef})
		}
	}
	retained := 0
	for _, c := range cands {
		ok := true
		for _, e := range byPair[c.pair] {
			if lhs[e.row]+e.coef > cons.Budget+1e-12 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		counts[c.pair] = 1
		retained++
		for _, e := range byPair[c.pair] {
			lhs[e.row] += e.coef
		}
	}
	return retained
}
