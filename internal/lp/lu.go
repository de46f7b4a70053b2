package lp

import "math"

// luFactor is the basis representation: a sparse LU factorization of the basis
// (P·B·Q = L·U) maintained between refactorizations by a product-form eta
// file. Columns are factorized in ascending-nonzero-count order (the static
// Markowitz rule — cheapest columns first keeps fill low on the extremely
// sparse bases the Theorem-1 constraint systems produce) with
// threshold partial row pivoting for stability. Each numeric column solve
// uses the Gilbert–Peierls reachability DFS, so factorization cost is
// proportional to arithmetic work rather than m².
//
// FTRAN applies L⁻¹/U⁻¹ and then the eta file in creation order; BTRAN
// applies the transposed etas in reverse order and then the transposed
// triangular solves. A pivot row of B⁻¹ is one BTRAN of a unit vector.
type luFactor struct {
	m int

	// The live factorization. refactor builds the next one into spare and
	// swaps the two on success, so a failed refactorization leaves this one
	// (and the eta file) untouched and a successful one allocates nothing
	// once both buffers have grown to the factor's size.
	luData
	spare luData

	// Product-form eta file: eta t transforms B_t into B_{t+1} after the
	// pivot (etaRow[t], pivot value etaPiv[t], off-pivot entries
	// etaIdx/etaVal in [etaPtr[t], etaPtr[t+1])).
	etaPtr []int32
	etaRow []int32
	etaPiv []float64
	etaIdx []int32
	etaVal []float64

	// Scratch for solves and factorization.
	work  []float64
	work2 []float64
	work3 []float64
	order []int32 // elimination order: basis positions by column count
	count []int32 // counting-sort buckets for order
	// DFS state for Gilbert–Peierls.
	stack    []int32
	stackL   []int32 // per-stack-frame position within the L column
	pattern  []int32
	visited  []int32
	visitGen int32

	// pivots counts the updates since the last refactor, including those a
	// rebuild has since folded into the factors; willAccept keys on it, so
	// pivot acceptance is the same whether or not the cost rule fired.
	// Once it reaches maxPivots every pivot is refused, so the solver
	// refactorizes, refreshes its duals and resets Devex. That backstop
	// no longer bounds FTRAN/BTRAN cost (the eta cost rule does), but it
	// shapes the pivot path: on the degenerate F-UMP models, which have
	// many optimal vertices, dropping it changes which optimum (and so
	// which plan) the solver returns.
	pivots    int
	maxPivots int
	// refactorFailed is set when the last refactorization found the basis
	// singular; the cost rule stays quiet until one succeeds again, so a
	// singular basis is not re-factorized on every pivot.
	refactorFailed bool
}

// etaCostFactor is the refactorization trigger: the factor rebuilds
// itself once its eta file holds more than this multiple of the nonzeros
// in L, U and the diagonal. FTRAN and BTRAN cost is proportional to
// factor plus eta nonzeros, so the rule caps the eta file's share of every
// solve regardless of how dense the individual etas are. On the O-UMP
// bases w = B⁻¹A_q is about two-thirds dense, so an eta holds hundreds of
// nonzeros against a few thousand in the whole LU: a cap of 128 etas
// would let the file grow to well over ten times the factor between
// rebuilds. 2 measured best on the `small` O-UMP (3 was close).
const etaCostFactor = 2

// luData is one sparse LU factorization P·B·Q = L·U.
type luData struct {
	// L: unit lower triangular, stored by elimination column; row indices
	// are original constraint rows (the row permutation lives in p/pinv).
	lp []int32
	li []int32
	lx []float64
	// U: upper triangular, stored by elimination column with the diagonal
	// split off; row indices are pivot positions (< column position).
	up []int32
	ui []int32
	ux []float64
	ud []float64
	// Permutations: p maps pivot position -> original row, q maps
	// elimination order -> basis position.
	p, pinv []int32
	q       []int32
}

// reset sizes d for an m-row factorization with empty L and U, reusing
// its capacity.
func (d *luData) reset(m int) {
	d.lp = resize(d.lp, m+1)
	d.up = resize(d.up, m+1)
	d.li, d.lx = d.li[:0], d.lx[:0]
	d.ui, d.ux = d.ui[:0], d.ux[:0]
	d.ud = resize(d.ud, m)
	d.p = resize(d.p, m)
	d.pinv = resize(d.pinv, m)
	d.q = resize(d.q, m)
}

// resize returns s with length n, zeroed, reallocating only when its
// capacity is short.
func resize[T int32 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func newLUFactor(m int) *luFactor {
	f := &luFactor{
		m:         m,
		work:      make([]float64, m),
		work2:     make([]float64, m),
		work3:     make([]float64, m),
		visited:   make([]int32, m),
		maxPivots: 64,
	}
	if m > 512 {
		f.maxPivots = 128
	}
	return f
}

// initDiag installs the trivial factorization of a diagonal ±1 basis:
// empty L, diagonal U, identity permutations.
func (f *luFactor) initDiag(diag []float64) {
	m := f.m
	f.reset(m)
	copy(f.ud, diag)
	for k := 0; k < m; k++ {
		f.p[k] = int32(k)
		f.pinv[k] = int32(k)
		f.q[k] = int32(k)
	}
	f.clearEtas()
	f.pivots = 0
}

func (f *luFactor) clearEtas() {
	f.etaPtr = f.etaPtr[:0]
	f.etaRow = f.etaRow[:0]
	f.etaPiv = f.etaPiv[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
}

// refactor computes a fresh P·B·Q = L·U factorization. On singularity it
// returns false and leaves the previous factorization (and eta file) alone.
func (f *luFactor) refactor(basis []int, cols [][]nz) bool {
	m := f.m
	// Static Markowitz column order: ascending nonzero count, stable.
	// Counting sort by column length (lengths are small).
	maxLen := 0
	for _, j := range basis {
		if l := len(cols[j]); l > maxLen {
			maxLen = l
		}
	}
	buckets := resize(f.count, maxLen+2)
	f.count = buckets
	for pos := 0; pos < m; pos++ {
		buckets[len(cols[basis[pos]])+1]++
	}
	for i := 1; i < len(buckets); i++ {
		buckets[i] += buckets[i-1]
	}
	order := resize(f.order, m)
	f.order = order
	for pos := 0; pos < m; pos++ {
		l := len(cols[basis[pos]])
		order[buckets[l]] = int32(pos)
		buckets[l]++
	}

	// Fresh factor state built in the spare buffers; swapped in only on
	// success.
	nw := &f.spare
	nw.reset(m)
	for i := range nw.pinv {
		nw.pinv[i] = -1
	}

	x := f.work
	clear(x)

	for k := 0; k < m; k++ {
		j := order[k] // basis position being eliminated
		col := cols[basis[j]]

		// Symbolic: reachability DFS through the partial L.
		f.pattern = f.pattern[:0]
		if f.visitGen == math.MaxInt32 {
			clear(f.visited)
			f.visitGen = 0
		}
		f.visitGen++
		gen := f.visitGen
		for _, e := range col {
			rr := e.row
			if f.visited[rr] == gen {
				continue
			}
			f.dfs(rr, gen, nw.pinv, nw.lp, nw.li)
		}
		// Numeric: scatter the column and eliminate in topological order
		// (pattern is in reverse topological order from the DFS postorder,
		// so walk it backwards).
		for _, e := range col {
			x[e.row] += e.val
		}
		for t := len(f.pattern) - 1; t >= 0; t-- {
			rr := f.pattern[t]
			pk := nw.pinv[rr]
			if pk < 0 {
				continue
			}
			xt := x[rr]
			if xt == 0 {
				continue
			}
			for idx := nw.lp[pk]; idx < nw.lp[pk+1]; idx++ {
				x[nw.li[idx]] -= nw.lx[idx] * xt
			}
		}

		// Pivot selection among not-yet-pivoted rows: partial pivoting by
		// magnitude with a deterministic smallest-row tie-break (sparsity
		// control comes from the static column order above).
		pivRow := int32(-1)
		pivAbs := 0.0
		for _, rr := range f.pattern {
			if nw.pinv[rr] >= 0 {
				continue
			}
			a := math.Abs(x[rr])
			if a > pivAbs || (a == pivAbs && pivRow >= 0 && rr < pivRow) {
				pivAbs, pivRow = a, rr
			}
		}
		if pivRow < 0 || pivAbs < 1e-13 {
			// Structurally or numerically singular column.
			for _, rr := range f.pattern {
				x[rr] = 0
			}
			f.refactorFailed = true
			return false
		}

		// Emit U column k (entries at already-pivoted rows) and L column k
		// (entries at the remaining rows, scaled by the pivot).
		piv := x[pivRow]
		nw.ud[k] = piv
		for _, rr := range f.pattern {
			v := x[rr]
			x[rr] = 0
			if v == 0 || rr == pivRow {
				continue
			}
			if pk := nw.pinv[rr]; pk >= 0 {
				nw.ui = append(nw.ui, pk)
				nw.ux = append(nw.ux, v)
			} else {
				nw.li = append(nw.li, rr)
				nw.lx = append(nw.lx, v/piv)
			}
		}
		nw.up[k+1] = int32(len(nw.ui))
		nw.lp[k+1] = int32(len(nw.li))
		nw.p[k] = pivRow
		nw.pinv[pivRow] = int32(k)
		nw.q[k] = j
	}

	f.luData, f.spare = f.spare, f.luData
	f.clearEtas()
	f.pivots = 0
	f.refactorFailed = false
	return true
}

// dfs pushes the reachable set of original row rr (through already-pivoted
// rows' L columns) onto f.pattern in postorder.
func (f *luFactor) dfs(root int32, gen int32, pinv []int32, lp []int32, li []int32) {
	f.stack = f.stack[:0]
	f.stackL = f.stackL[:0]
	f.stack = append(f.stack, root)
	f.stackL = append(f.stackL, -1)
	f.visited[root] = gen
	for len(f.stack) > 0 {
		top := len(f.stack) - 1
		rr := f.stack[top]
		pk := pinv[rr]
		start := f.stackL[top]
		if start == -1 {
			if pk < 0 {
				// Unpivoted leaf.
				f.pattern = append(f.pattern, rr)
				f.stack = f.stack[:top]
				f.stackL = f.stackL[:top]
				continue
			}
			start = lp[pk]
		}
		descended := false
		for idx := start; idx < lp[pk+1]; idx++ {
			child := li[idx]
			if f.visited[child] == gen {
				continue
			}
			f.visited[child] = gen
			f.stackL[top] = idx + 1
			f.stack = append(f.stack, child)
			f.stackL = append(f.stackL, -1)
			descended = true
			break
		}
		if !descended {
			f.pattern = append(f.pattern, rr)
			f.stack = f.stack[:top]
			f.stackL = f.stackL[:top]
		}
	}
}

// baseFtran solves B₀·out = x for the factorized base (ignoring etas),
// reading x indexed by constraint row and writing out indexed by basis
// position. x is destroyed.
func (f *luFactor) baseFtran(x, out []float64) {
	m := f.m
	z := f.work2
	// Forward solve L·z = P·x.
	for k := 0; k < m; k++ {
		zk := x[f.p[k]]
		z[k] = zk
		if zk == 0 {
			continue
		}
		for idx := f.lp[k]; idx < f.lp[k+1]; idx++ {
			x[f.li[idx]] -= f.lx[idx] * zk
		}
	}
	// Backward solve U·ŵ = z, column oriented.
	for k := m - 1; k >= 0; k-- {
		wk := z[k] / f.ud[k]
		z[k] = wk
		if wk == 0 {
			continue
		}
		for idx := f.up[k]; idx < f.up[k+1]; idx++ {
			z[f.ui[idx]] -= f.ux[idx] * wk
		}
	}
	// Un-permute columns: out[q[k]] = ŵ[k].
	for k := 0; k < m; k++ {
		out[f.q[k]] = z[k]
	}
}

// applyEtas finishes an FTRAN: x := E_t⁻¹ ··· E_1⁻¹ x.
func (f *luFactor) applyEtas(x []float64) {
	for t := 0; t < len(f.etaRow); t++ {
		r := f.etaRow[t]
		xr := x[r] / f.etaPiv[t]
		x[r] = xr
		if xr == 0 {
			continue
		}
		for idx := f.etaPtr[t]; idx < f.etaPtr[t+1]; idx++ {
			x[f.etaIdx[idx]] -= f.etaVal[idx] * xr
		}
	}
}

func (f *luFactor) ftranCol(col []nz, w []float64) {
	x := f.work
	for i := range x {
		x[i] = 0
	}
	for _, e := range col {
		x[e.row] += e.val
	}
	f.baseFtran(x, w)
	// baseFtran leaves x zeroed only on its read pattern; clear fully.
	for i := range x {
		x[i] = 0
	}
	f.applyEtas(w)
}

func (f *luFactor) ftran(x []float64) {
	out := f.work3
	in := f.work
	copy(in, x)
	f.baseFtran(in, out)
	clear(in)
	f.applyEtas(out)
	copy(x, out)
}

func (f *luFactor) btran(x []float64) {
	// Transposed etas in reverse creation order.
	for t := len(f.etaRow) - 1; t >= 0; t-- {
		r := f.etaRow[t]
		s := 0.0
		for idx := f.etaPtr[t]; idx < f.etaPtr[t+1]; idx++ {
			s += f.etaVal[idx] * x[f.etaIdx[idx]]
		}
		x[r] = (x[r] - s) / f.etaPiv[t]
	}
	m := f.m
	z := f.work2
	// v[k] = x[q[k]]; forward solve Uᵀ·v' = v (row k of Uᵀ is column k of U).
	for k := 0; k < m; k++ {
		z[k] = x[f.q[k]]
	}
	for k := 0; k < m; k++ {
		s := z[k]
		for idx := f.up[k]; idx < f.up[k+1]; idx++ {
			s -= f.ux[idx] * z[f.ui[idx]]
		}
		z[k] = s / f.ud[k]
	}
	// Backward solve Lᵀ·(P·y) = v' (row k of Lᵀ is column k of L).
	for k := m - 1; k >= 0; k-- {
		s := z[k]
		for idx := f.lp[k]; idx < f.lp[k+1]; idx++ {
			s -= f.lx[idx] * z[f.pinv[f.li[idx]]]
		}
		z[k] = s
	}
	for k := 0; k < m; k++ {
		x[f.p[k]] = z[k]
	}
}

func (f *luFactor) pivotRow(r int, rho []float64) {
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	f.btran(rho)
}

// willAccept refuses a pivot once maxPivots pivots have passed since the
// last refactor, or when the pivot is too small relative to the
// transformed column — except on a freshly refactorized basis, where the
// numbers are as clean as they will get and refusing again could live-lock
// the caller's refactorize-and-retry loop. A cost rebuild does not count
// as fresh: both tests see the pivots it folded in.
func (f *luFactor) willAccept(r int, w []float64) bool {
	if f.pivots >= f.maxPivots {
		return false
	}
	if f.pivots == 0 {
		return true
	}
	piv := w[r]
	maxAbs := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return math.Abs(piv) >= 1e-8*maxAbs
}

// update appends a product-form eta for a pivot at basis position r with
// FTRAN vector w. Call only after willAccept.
func (f *luFactor) update(r int, w []float64) {
	piv := w[r]
	if len(f.etaPtr) == 0 {
		f.etaPtr = append(f.etaPtr, 0)
	}
	for i, v := range w {
		if i == r || v == 0 {
			continue
		}
		f.etaIdx = append(f.etaIdx, int32(i))
		f.etaVal = append(f.etaVal, v)
	}
	f.etaPtr = append(f.etaPtr, int32(len(f.etaIdx)))
	f.etaRow = append(f.etaRow, int32(r))
	f.etaPiv = append(f.etaPiv, piv)
	f.pivots++
}

func (f *luFactor) updates() int { return len(f.etaRow) }

// etaNonzeros counts the eta file's stored entries, pivots included.
func (f *luFactor) etaNonzeros() int { return len(f.etaIdx) + len(f.etaRow) }

// etaBound is the eta file size, in nonzeros, past which rebuild
// refactorizes: etaCostFactor times the nonzeros of L, U and the diagonal.
func (f *luFactor) etaBound() int { return etaCostFactor * (len(f.li) + len(f.ui) + f.m) }

// rebuild applies the etaCostFactor rule, keeping the pivot count.
func (f *luFactor) rebuild(basis []int, cols [][]nz) bool {
	if f.refactorFailed || f.etaNonzeros() <= f.etaBound() {
		return false
	}
	pivots := f.pivots
	if !f.refactor(basis, cols) {
		return false
	}
	f.pivots = pivots
	return true
}
