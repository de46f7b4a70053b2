package lp

import "math"

// basisFactor abstracts how the basis inverse is represented and applied.
// The solver only ever needs four linear-algebra primitives — FTRAN, BTRAN,
// the pivot row of B⁻¹, and a rank-one basis-change update — so the dense
// explicit inverse (the original engine, kept for the ablation benchmarks)
// and the sparse LU factorization plug in behind the same interface.
//
// All vectors are dense length-m slices. FTRAN results and pivot rows are
// indexed by basis position; by construction basis position i is also
// constraint row i, so callers never translate between the two spaces.
type basisFactor interface {
	// initDiag installs the factorization of a diagonal starting basis with
	// the given ±1 diagonal (the cold-start slack/artificial basis), without
	// paying for a general refactorization.
	initDiag(diag []float64)
	// refactor rebuilds the factorization from scratch for the basis whose
	// column at position i is cols[basis[i]]. It returns false when the
	// matrix is numerically singular, in which case the previous
	// factorization is left untouched (mirroring the dense engine's
	// keep-the-old-inverse behaviour).
	refactor(basis []int, cols [][]nz) bool
	// ftranCol sets w = B⁻¹·A_j for the sparse column col, overwriting w.
	ftranCol(col []nz, w []float64)
	// ftran overwrites x with B⁻¹·x.
	ftran(x []float64)
	// btran overwrites x with B⁻ᵀ·x (x enters indexed by basis position and
	// leaves indexed by constraint row; the two coincide here).
	btran(x []float64)
	// pivotRow sets rho to row r of B⁻¹ (equivalently B⁻ᵀ·e_r). It must be
	// called before update for the same pivot.
	pivotRow(r int, rho []float64)
	// willAccept reports whether an update for a pivot at position r with
	// FTRAN vector w can be applied safely (pivot cap not reached, pivot
	// not degenerate relative to the transformed column). The solver asks
	// BEFORE committing the pivot, so a refusal refactorizes the current —
	// still consistent — basis and retries with clean numbers; the factor
	// and the solver's basis bookkeeping can never drift apart.
	willAccept(r int, w []float64) bool
	// update applies the basis change "column entering at position r" given
	// the FTRAN vector w = B⁻¹·A_enter. Call only after willAccept.
	update(r int, w []float64)
	// rebuild refactorizes, as refactor does, when the updates applied
	// since the last refactorization have made FTRAN/BTRAN dearer than a
	// fresh factorization would, and reports whether it did. It is a cost
	// measure only: willAccept answers as though the updates were still
	// applied, so the pivot rules do not depend on when it fires (the
	// rounding of their inputs does; see ump.PlanFormat).
	rebuild(basis []int, cols [][]nz) bool
	// updates reports the number of updates applied since the last refactor
	// or rebuild.
	updates() int
	// etaNonzeros reports the entries held by the update file since the
	// last refactor (0 for a representation that keeps none).
	etaNonzeros() int
}

// denseFactor is the original engine: an explicit m×m basis inverse kept
// up to date by full rank-one eta updates (O(m²) per pivot, O(m²) memory).
// It is retained behind Options.Engine for differential testing and the
// dense-vs-sparse benchmark rows of BENCH_pr3.json.
type denseFactor struct {
	m        int
	binv     []float64 // row-major explicit inverse
	nUpdates int
}

func newDenseFactor(m int) *denseFactor {
	return &denseFactor{m: m, binv: make([]float64, m*m)}
}

func (f *denseFactor) initDiag(diag []float64) {
	m := f.m
	for i := range f.binv {
		f.binv[i] = 0
	}
	for i := 0; i < m; i++ {
		f.binv[i*m+i] = diag[i] // inverse of ±1 is itself
	}
	f.nUpdates = 0
}

// refactor rebuilds the explicit inverse via Gauss-Jordan elimination with
// partial pivoting.
func (f *denseFactor) refactor(basis []int, cols [][]nz) bool {
	m := f.m
	B := make([]float64, m*m)
	for c := 0; c < m; c++ {
		for _, e := range cols[basis[c]] {
			B[int(e.row)*m+c] = e.val
		}
	}
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for col := 0; col < m; col++ {
		p := col
		best := math.Abs(B[col*m+col])
		for i := col + 1; i < m; i++ {
			if a := math.Abs(B[i*m+col]); a > best {
				best, p = a, i
			}
		}
		if best < 1e-13 {
			return false
		}
		if p != col {
			swapRows(B, m, p, col)
			swapRows(inv, m, p, col)
		}
		piv := B[col*m+col]
		invPiv := 1.0 / piv
		for c := 0; c < m; c++ {
			B[col*m+c] *= invPiv
			inv[col*m+c] *= invPiv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			fac := B[i*m+col]
			if fac == 0 {
				continue
			}
			for c := 0; c < m; c++ {
				B[i*m+c] -= fac * B[col*m+c]
				inv[i*m+c] -= fac * inv[col*m+c]
			}
		}
	}
	f.binv = inv
	f.nUpdates = 0
	return true
}

func swapRows(a []float64, m, i, j int) {
	ri := a[i*m : (i+1)*m]
	rj := a[j*m : (j+1)*m]
	for c := 0; c < m; c++ {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

func (f *denseFactor) ftranCol(col []nz, w []float64) {
	m := f.m
	for i := range w {
		w[i] = 0
	}
	for _, e := range col {
		v := e.val
		c := int(e.row)
		for i := 0; i < m; i++ {
			w[i] += f.binv[i*m+c] * v
		}
	}
}

func (f *denseFactor) ftran(x []float64) {
	m := f.m
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		row := f.binv[i*m : (i+1)*m]
		sum := 0.0
		for c, v := range row {
			sum += v * x[c]
		}
		out[i] = sum
	}
	copy(x, out)
}

func (f *denseFactor) btran(x []float64) {
	m := f.m
	out := make([]float64, m)
	for r := 0; r < m; r++ {
		v := x[r]
		if v == 0 {
			continue
		}
		row := f.binv[r*m : (r+1)*m]
		for i, b := range row {
			out[i] += v * b
		}
	}
	copy(x, out)
}

func (f *denseFactor) pivotRow(r int, rho []float64) {
	copy(rho, f.binv[r*f.m:(r+1)*f.m])
}

// willAccept: the dense engine applies any pivot the ratio-test guard
// (|w[r]| ≥ 1e-9) admits, exactly as it always has.
func (f *denseFactor) willAccept(int, []float64) bool { return true }

// update applies the eta transformation for a pivot in row r using the
// FTRAN vector w (= B⁻¹·A_enter).
func (f *denseFactor) update(r int, w []float64) {
	m := f.m
	piv := w[r]
	rowR := f.binv[r*m : (r+1)*m]
	inv := 1.0 / piv
	for c := 0; c < m; c++ {
		rowR[c] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		fac := w[i]
		if fac == 0 {
			continue
		}
		row := f.binv[i*m : (i+1)*m]
		for c := 0; c < m; c++ {
			row[c] -= fac * rowR[c]
		}
	}
	f.nUpdates++
}

// rebuild: an update costs the dense engine the same O(m²) however many
// came before, so it never rebuilds.
func (f *denseFactor) rebuild([]int, [][]nz) bool { return false }

func (f *denseFactor) updates() int { return f.nUpdates }

// etaNonzeros: updates are folded into the explicit inverse; there is no
// eta file.
func (f *denseFactor) etaNonzeros() int { return 0 }
