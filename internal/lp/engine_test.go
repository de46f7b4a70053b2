package lp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// enginesAgreeStatuses holds the status of each TestEnginesAgree trial as
// the dense explicit-inverse engine (deleted since) solved it: O optimal,
// U unbounded. The two engines agreed on every trial when it was recorded.
const enginesAgreeStatuses = "OOOOOOOOUOOUOUOOOUOOOOOOOOOOOOOOUOOOOUUOOUOUOOOOOOOUOUOOUOOUOOUOOUOOOOOOOOUOUUOU"

// TestEnginesAgree solves random feasible LPs and checks each status
// against the one the dense engine recorded (61 optimal, 19 unbounded),
// with a full optimality certificate for every optimal solve.
func TestEnginesAgree(t *testing.T) {
	statusOf := map[rune]Status{'O': Optimal, 'U': Unbounded}
	r := rand.New(rand.NewPCG(2024, 6))
	for trial, want := range enginesAgreeStatuses {
		sense := Minimize
		if trial%2 == 0 {
			sense = Maximize
		}
		p := randomFeasibleLP(r, sense, 1+r.IntN(10), 1+r.IntN(10), true)
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != statusOf[want] {
			t.Fatalf("trial %d: status %v, dense engine recorded %v", trial, sol.Status, statusOf[want])
		}
		if sol.Status == Optimal {
			checkCertificate(t, p, sol)
		}
	}
}

// TestEnginesAgreeOnPackingLPs mirrors the paper's constraint structure.
// The dense engine solved every trial to optimality.
func TestEnginesAgreeOnPackingLPs(t *testing.T) {
	r := rand.New(rand.NewPCG(99, 4))
	for trial := 0; trial < 40; trial++ {
		nVars := 3 + r.IntN(50)
		nRows := 2 + r.IntN(25)
		p := NewProblem(Maximize)
		for j := 0; j < nVars; j++ {
			p.AddVariable(1, 0, float64(1+r.IntN(40)))
		}
		budget := 0.01 + r.Float64()
		for i := 0; i < nRows; i++ {
			row := p.AddConstraint(LE, budget)
			for j := 0; j < nVars; j++ {
				if r.Float64() < 0.25 {
					p.SetCoef(row, j, 0.001+2*r.Float64())
				}
			}
		}
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		checkCertificate(t, p, sol)
	}
}

// TestLUFactorResiduals exercises the factor primitives directly on a
// random nonsingular sparse basis B: FTRAN, BTRAN and pivot rows must solve
// their systems against B to 1e-6 relative, before and after an eta update
// (checked against the updated basis).
func TestLUFactorResiduals(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 30; trial++ {
		m := 2 + r.IntN(25)
		// Random sparse columns with a guaranteed diagonal, so the matrix is
		// nonsingular with overwhelming probability.
		cols := make([][]nz, m)
		basis := make([]int, m)
		for j := 0; j < m; j++ {
			basis[j] = j
			col := []nz{{row: int32(j), val: 1 + r.Float64()}}
			for i := 0; i < m; i++ {
				if i != j && r.Float64() < 0.15 {
					col = append(col, nz{row: int32(i), val: r.Float64()*2 - 1})
				}
			}
			cols[j] = col
		}
		lu := newLUFactor(m)
		if !lu.refactor(basis, cols) {
			continue // singular draw; skip
		}
		checkFactorResiduals(t, m, lu, basis, cols, r)

		// One eta update: replace a random basis position with a random new
		// column and verify the factor now solves against the new basis.
		pos := r.IntN(m)
		newCol := []nz{{row: int32(r.IntN(m)), val: 1 + r.Float64()}, {row: int32(pos), val: 1 + r.Float64()}}
		w := make([]float64, m)
		lu.ftranCol(newCol, w)
		if math.Abs(w[pos]) < 1e-6 {
			continue // unstable pivot for this random draw
		}
		if !lu.willAccept(pos, w) {
			continue
		}
		lu.update(pos, w)
		cols = append(cols, newCol)
		basis[pos] = len(cols) - 1
		checkFactorResiduals(t, m, lu, basis, cols, r)
	}
}

// checkFactorResiduals checks B·ftranCol(a) = a, Bᵀ·btran(x) = x and
// pivotRow(r)·B = e_rᵀ, where column i of B is cols[basis[i]].
func checkFactorResiduals(t *testing.T, m int, f basisFactor, basis []int, cols [][]nz, r *rand.Rand) {
	t.Helper()
	// mul returns B·v (trans false) or Bᵀ·v (trans true).
	mul := func(v []float64, trans bool) []float64 {
		out := make([]float64, m)
		for c := 0; c < m; c++ {
			for _, e := range cols[basis[c]] {
				if trans {
					out[c] += e.val * v[e.row]
				} else {
					out[e.row] += e.val * v[c]
				}
			}
		}
		return out
	}
	check := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if !approx(got[i], want[i], 1e-6*(1+math.Abs(want[i]))) {
				t.Fatalf("%s residual at %d: got %g, want %g", what, i, got[i], want[i])
			}
		}
	}
	// FTRAN of a random sparse column.
	a := make([]float64, m)
	var col []nz
	for i, k := 0, r.IntN(m); i < m; i++ {
		if i == k || r.Float64() < 0.3 {
			a[i] = r.Float64() + 0.5
			col = append(col, nz{row: int32(i), val: a[i]})
		}
	}
	w := make([]float64, m)
	f.ftranCol(col, w)
	check("B·ftranCol(a) = a", mul(w, false), a)
	// BTRAN of a random dense vector.
	x := make([]float64, m)
	for i := range x {
		x[i] = r.Float64()*2 - 1
	}
	y := append([]float64(nil), x...)
	f.btran(y)
	check("Bᵀ·btran(x) = x", mul(y, true), x)
	// A pivot row.
	pr := r.IntN(m)
	rho := make([]float64, m)
	f.pivotRow(pr, rho)
	e := make([]float64, m)
	e[pr] = 1
	check("pivotRow(r)·B = e_r", mul(rho, true), e)
}

// buildPackingLP constructs a deterministic packing LP shaped like the
// Theorem-1 systems, parameterized by the shared budget.
func buildPackingLP(r *rand.Rand, nVars, nRows int, budget float64) *Problem {
	p := NewProblem(Maximize)
	for j := 0; j < nVars; j++ {
		p.AddVariable(1, 0, float64(1+r.IntN(30)))
	}
	for i := 0; i < nRows; i++ {
		row := p.AddConstraint(LE, budget)
		for j := 0; j < nVars; j++ {
			if r.Float64() < 0.3 {
				p.SetCoef(row, j, 0.01+r.Float64())
			}
		}
	}
	return p
}

// TestWarmStartSameProblem: re-solving with the final basis must confirm
// optimality almost immediately and reproduce the solution.
func TestWarmStartSameProblem(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	p := buildPackingLP(r, 60, 30, 0.8)
	cold, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Fatalf("cold status %v", cold.Status)
	}
	if cold.Basis == nil {
		t.Fatal("Optimal solution carries no basis snapshot")
	}
	warm, err := Solve(p, Options{WarmStart: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	if !approx(warm.Objective, cold.Objective, 1e-9*(1+math.Abs(cold.Objective))) {
		t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
	}
	for j := range warm.X {
		if !approx(warm.X[j], cold.X[j], 1e-7) {
			t.Fatalf("warm X[%d] = %g != cold %g", j, warm.X[j], cold.X[j])
		}
	}
	if warm.Iterations > cold.Iterations/2+2 {
		t.Errorf("warm start did not help: %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
	checkCertificate(t, p, warm)
}

// TestWarmStartScaledRHS mimics the ε/δ grid sweeps: the same constraint
// matrix re-solved under a different budget, warm-started from the previous
// basis. The warm solve must stay correct (certificate) and typically
// cheaper than cold.
func TestWarmStartScaledRHS(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 5))
	base := buildPackingLP(r, 80, 40, 0.5)
	first, err := Solve(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != Optimal {
		t.Fatalf("base status %v", first.Status)
	}
	warmBasis := first.Basis
	totalWarm, totalCold := 0, 0
	for _, budget := range []float64{0.55, 0.65, 0.8, 1.1, 1.6} {
		r2 := rand.New(rand.NewPCG(17, 5)) // identical matrix, new rhs
		p := buildPackingLP(r2, 80, 40, budget)
		cold, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Solve(p, Options{WarmStart: warmBasis})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal || cold.Status != Optimal {
			t.Fatalf("budget %g: statuses warm %v cold %v", budget, warm.Status, cold.Status)
		}
		if !approx(warm.Objective, cold.Objective, 1e-6*(1+cold.Objective)) {
			t.Fatalf("budget %g: warm objective %g != cold %g", budget, warm.Objective, cold.Objective)
		}
		checkCertificate(t, p, warm)
		totalWarm += warm.Iterations
		totalCold += cold.Iterations
		warmBasis = warm.Basis
	}
	if totalWarm > totalCold {
		t.Errorf("warm sweep took %d iterations, cold %d — warm starts should not cost more", totalWarm, totalCold)
	}
}

// TestWarmStartInvalidFallsBack: malformed or mismatched snapshots must
// silently cold-start, never fail or corrupt the solve.
func TestWarmStartInvalidFallsBack(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 21))
	p := buildPackingLP(r, 20, 10, 0.7)
	cold, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []*Basis{
		{}, // empty
		{Vars: make([]int8, 3), Rows: make([]int8, 2)},   // wrong shape
		{Vars: make([]int8, 20), Rows: make([]int8, 10)}, // all nonbasic: count mismatch
		{Vars: func() []int8 {
			v := make([]int8, 20)
			for i := range v {
				v[i] = BasisBasic
			}
			return v
		}(), Rows: make([]int8, 10)}, // too many basics
	}
	for i, b := range bad {
		sol, err := Solve(p, Options{WarmStart: b})
		if err != nil {
			t.Fatalf("bad basis %d: %v", i, err)
		}
		if sol.Status != Optimal || !approx(sol.Objective, cold.Objective, 1e-7*(1+cold.Objective)) {
			t.Fatalf("bad basis %d: status %v obj %g, want optimal %g", i, sol.Status, sol.Objective, cold.Objective)
		}
	}
}

// TestPresolveSingletonRowDualRecovery: a dropped singleton row whose bound
// binds must surface its dual through the postsolve (the certificate checks
// complementary slackness and strong duality on the original problem).
func TestPresolveSingletonRowDualRecovery(t *testing.T) {
	// min 2x + 3y s.t. x >= 3 (singleton), x + y >= 5, y >= 0.
	p := NewProblem(Minimize)
	x := p.AddVariable(2, 0, math.Inf(1))
	y := p.AddVariable(3, 0, math.Inf(1))
	r1 := p.AddConstraint(GE, 3)
	p.SetCoef(r1, x, 1)
	r2 := p.AddConstraint(GE, 5)
	p.SetCoef(r2, x, 1)
	p.SetCoef(r2, y, 1)
	sol := solveOK(t, p)
	if !approx(sol.Objective, 10, testTol) { // x=5, y=0
		t.Fatalf("objective %g, want 10", sol.Objective)
	}
	checkCertificate(t, p, sol)

	// Same with the singleton binding: min x s.t. x >= 3 alone.
	p2 := NewProblem(Minimize)
	x2 := p2.AddVariable(2, 0, math.Inf(1))
	rr := p2.AddConstraint(GE, 3)
	p2.SetCoef(rr, x2, 1)
	s2 := solveOK(t, p2)
	if !approx(s2.Objective, 6, testTol) || !approx(s2.X[0], 3, testTol) {
		t.Fatalf("got obj %g x %g, want 6 at x=3", s2.Objective, s2.X[0])
	}
	if !approx(s2.Dual[0], 2, 1e-6) {
		t.Errorf("singleton row dual %g, want 2 (recovered from the reduced cost)", s2.Dual[0])
	}
	checkCertificate(t, p2, s2)
}

// TestPresolveEqualitySingleton: an EQ singleton fixes the variable and its
// dual carries the full reduced cost.
func TestPresolveEqualitySingleton(t *testing.T) {
	// min 4x + y s.t. 2x = 6, x + y >= 5.
	p := NewProblem(Minimize)
	x := p.AddVariable(4, 0, math.Inf(1))
	y := p.AddVariable(1, 0, math.Inf(1))
	r1 := p.AddConstraint(EQ, 6)
	p.SetCoef(r1, x, 2)
	r2 := p.AddConstraint(GE, 5)
	p.SetCoef(r2, x, 1)
	p.SetCoef(r2, y, 1)
	sol := solveOK(t, p)
	if !approx(sol.X[x], 3, testTol) || !approx(sol.X[y], 2, testTol) {
		t.Fatalf("X = %v, want (3, 2)", sol.X)
	}
	checkCertificate(t, p, sol)
}

// TestPresolveInfeasibleSingletons: contradictory singleton rows are caught
// in presolve with the same Infeasible status the simplex would produce.
func TestPresolveInfeasibleSingletons(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, math.Inf(1))
	r1 := p.AddConstraint(LE, 1)
	p.SetCoef(r1, x, 1)
	r2 := p.AddConstraint(GE, 2)
	p.SetCoef(r2, x, 1)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

// TestPresolveMatchesNoPresolve: presolve must not change outcomes on
// random LPs (status and objective; vertices may legitimately differ).
func TestPresolveMatchesNoPresolve(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 2))
	for trial := 0; trial < 60; trial++ {
		sense := Minimize
		if trial%2 == 0 {
			sense = Maximize
		}
		p := randomFeasibleLP(r, sense, 1+r.IntN(8), 1+r.IntN(8), true)
		with, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		without, err := Solve(p, Options{NoPresolve: true})
		if err != nil {
			t.Fatal(err)
		}
		if with.Status != without.Status {
			t.Fatalf("trial %d: status with presolve %v != without %v", trial, with.Status, without.Status)
		}
		if with.Status == Optimal {
			if !approx(with.Objective, without.Objective, 1e-5*(1+math.Abs(without.Objective))) {
				t.Fatalf("trial %d: objective %g (presolve) != %g", trial, with.Objective, without.Objective)
			}
			checkCertificate(t, p, with)
		}
	}
}

// TestPresolveEmptyColumnFixed: a variable in no row lands on its
// objective-preferred bound without consuming simplex iterations.
func TestPresolveEmptyColumnFixed(t *testing.T) {
	p := NewProblem(Maximize)
	a := p.AddVariable(5, 0, 7)           // empty column, positive cost → upper
	b := p.AddVariable(-2, -4, 9)         // empty column, negative cost → lower
	c := p.AddVariable(1, 0, math.Inf(1)) // regular
	row := p.AddConstraint(LE, 3)
	p.SetCoef(row, c, 1)
	sol := solveOK(t, p)
	if !approx(sol.X[a], 7, testTol) || !approx(sol.X[b], -4, testTol) || !approx(sol.X[c], 3, testTol) {
		t.Fatalf("X = %v, want (7, -4, 3)", sol.X)
	}
	if !approx(sol.Objective, 5*7+(-2)*(-4)+3, testTol) {
		t.Errorf("objective %g", sol.Objective)
	}
	checkCertificate(t, p, sol)
}

// TestBasisClone guards against aliasing of cached snapshots.
func TestBasisClone(t *testing.T) {
	b := &Basis{Vars: []int8{BasisBasic, BasisAtLower}, Rows: []int8{BasisAtLower}}
	c := b.Clone()
	c.Vars[0] = BasisAtUpper
	c.Rows[0] = BasisBasic
	if b.Vars[0] != BasisBasic || b.Rows[0] != BasisAtLower {
		t.Error("Clone aliases the original")
	}
	if (*Basis)(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}
