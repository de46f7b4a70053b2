package lp

import (
	"math/rand/v2"
	"testing"
)

// statsProblem builds a dense-enough random LP that survives presolve with
// work left to do, plus a couple of rows presolve is guaranteed to drop.
func statsProblem(seed uint64) *Problem {
	rng := rand.New(rand.NewPCG(seed, seed^0xdead))
	p := NewProblem(Maximize)
	const n, m = 40, 30
	for j := 0; j < n; j++ {
		p.AddVariable(1+rng.Float64(), 0, 10)
	}
	for i := 0; i < m; i++ {
		r := p.AddConstraint(LE, 5+10*rng.Float64())
		for k := 0; k < 6; k++ {
			p.SetCoef(r, rng.IntN(n), 0.1+rng.Float64())
		}
	}
	// A singleton row (becomes a bound, dropped) and a redundant row.
	rs := p.AddConstraint(LE, 3)
	p.SetCoef(rs, 0, 1)
	rr := p.AddConstraint(LE, 1e6)
	p.SetCoef(rr, 1, 1)
	return p
}

func TestSolveStatsColdAndWarm(t *testing.T) {
	cold, err := Solve(statsProblem(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Fatalf("status %v", cold.Status)
	}
	st := cold.Stats
	if st.Refactorizations < 1 {
		t.Errorf("refactorizations = %d, want >= 1", st.Refactorizations)
	}
	if st.PresolveRows < 2 {
		t.Errorf("presolve rows = %d, want >= 2 (singleton + redundant)", st.PresolveRows)
	}
	if st.PresolveCols < 0 {
		t.Errorf("negative presolve cols %d", st.PresolveCols)
	}
	if st.WarmAttempted || st.WarmAccepted {
		t.Errorf("cold solve reported warm flags %+v", st)
	}
	if cold.Iterations > 0 && st.EtaLength < 1 {
		t.Errorf("%d iterations but eta peak %d", cold.Iterations, st.EtaLength)
	}

	warm, err := Solve(statsProblem(7), Options{WarmStart: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !approx(warm.Objective, cold.Objective, testTol) {
		t.Fatalf("warm resolve diverged: %v %g vs %g", warm.Status, warm.Objective, cold.Objective)
	}
	if !warm.Stats.WarmAttempted || !warm.Stats.WarmAccepted {
		t.Errorf("warm solve flags %+v, want attempted and accepted", warm.Stats)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took more iterations (%d) than cold (%d)", warm.Iterations, cold.Iterations)
	}
	if warm.Stats.Refactorizations < 1 {
		t.Errorf("warm refactorizations = %d", warm.Stats.Refactorizations)
	}
}

func TestSolveStatsWarmFallback(t *testing.T) {
	cold, err := Solve(statsProblem(11), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A basis of the wrong shape must be rejected, not installed.
	bad := &Basis{Vars: []int8{BasisBasic}, Rows: []int8{BasisBasic}}
	sol, err := Solve(statsProblem(11), Options{WarmStart: bad})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, cold.Objective, testTol) {
		t.Fatalf("fallback solve diverged: %v %g vs %g", sol.Status, sol.Objective, cold.Objective)
	}
	if !sol.Stats.WarmAttempted || sol.Stats.WarmAccepted {
		t.Errorf("stats %+v, want attempted without accepted", sol.Stats)
	}
}

func TestSolveStatsNoPresolve(t *testing.T) {
	sol, err := Solve(statsProblem(3), Options{NoPresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Stats.PresolveRows != 0 || sol.Stats.PresolveCols != 0 {
		t.Errorf("NoPresolve reported eliminations: %+v", sol.Stats)
	}
	if sol.Stats.Refactorizations < 1 {
		t.Errorf("refactorizations = %d", sol.Stats.Refactorizations)
	}
}

// etaBoundCheck wraps a basis factor and checks the refactorization rule on
// every update: before an eta is appended the file must be within the cost
// bound (the solver rebuilds right after any pivot that crosses it), so its
// peak is at most the bound plus one eta.
type etaBoundCheck struct {
	basisFactor
	t          *testing.T
	peak       int // largest eta nonzero count seen after an update
	costRefacs int // refactorizations made by the cost rule
}

func (c *etaBoundCheck) update(r int, w []float64) {
	if lu, ok := c.basisFactor.(*luFactor); ok && lu.etaNonzeros() > lu.etaBound() {
		c.t.Fatalf("eta file holds %d nonzeros before an update, over the cost bound %d", lu.etaNonzeros(), lu.etaBound())
	}
	c.basisFactor.update(r, w)
	c.peak = max(c.peak, c.etaNonzeros())
}

func (c *etaBoundCheck) rebuild(basis []int, cols [][]nz) bool {
	if !c.basisFactor.rebuild(basis, cols) {
		return false
	}
	c.costRefacs++
	return true
}

// etaProblem is large enough that the eta file outgrows
// its factors several times in one solve.
func etaProblem(seed uint64) *Problem {
	rng := rand.New(rand.NewPCG(seed, seed^0xbeef))
	p := NewProblem(Maximize)
	const n, m = 300, 200
	for j := 0; j < n; j++ {
		p.AddVariable(1+rng.Float64(), 0, 10)
	}
	for i := 0; i < m; i++ {
		r := p.AddConstraint(LE, 5+10*rng.Float64())
		for k := 0; k < 8; k++ {
			p.SetCoef(r, rng.IntN(n), 0.1+rng.Float64())
		}
	}
	return p
}

func TestEtaNonzerosBound(t *testing.T) {
	sol, err := Solve(etaProblem(5), Options{NoPresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}

	// The same solve, step by step, with the factor under watch.
	s := newSolver(etaProblem(5), Options{})
	s.coldStart()
	check := &etaBoundCheck{basisFactor: s.factor, t: t}
	s.factor = check
	again, err := s.solve()
	if err != nil {
		t.Fatal(err)
	}
	s.sampleEta()
	if again.Iterations != sol.Iterations || s.etaNnzPeak != sol.Stats.EtaNonzeros {
		t.Fatalf("watched solve diverged: %d iterations, eta peak %d; want %d, %d",
			again.Iterations, s.etaNnzPeak, sol.Iterations, sol.Stats.EtaNonzeros)
	}
	if sol.Stats.EtaNonzeros != check.peak {
		t.Errorf("reported eta peak %d, observed %d", sol.Stats.EtaNonzeros, check.peak)
	}
	if check.costRefacs == 0 {
		t.Errorf("the cost rule never fired in %d iterations", sol.Iterations)
	}
	if sol.Stats.EtaNonzeros < sol.Stats.EtaLength {
		t.Errorf("eta peak %d nonzeros below its %d etas", sol.Stats.EtaNonzeros, sol.Stats.EtaLength)
	}
}

// TestRefactorizeAllocs pins the refactorization path at zero allocations
// once warm: the cost rule refactorizes dozens of times per solve, so the
// LU rebuild (built into the spare buffers and swapped in), the xB
// recomputation and its FTRAN must all reuse memory the solver holds.
func TestRefactorizeAllocs(t *testing.T) {
	s := newSolver(etaProblem(5), Options{})
	s.coldStart()
	if _, err := s.solve(); err != nil {
		t.Fatal(err)
	}
	s.refactorize() // both LU buffers now hold this basis's factorization
	before := s.refactors
	if allocs := testing.AllocsPerRun(20, s.refactorize); allocs != 0 {
		t.Errorf("warm refactorize allocates %.1f times per call, want 0", allocs)
	}
	if s.refactors == before {
		t.Fatal("refactorize did not refactorize")
	}
}
