package la

import "math"

// Tridiag is an n×n tridiagonal matrix stored as three diagonals:
// Sub[i] = A[i+1][i] (i = 0..n-2), Diag[i] = A[i][i], Sup[i] = A[i][i+1].
//
// Its solver, SolveBorderedInto, also takes an optional border column u and
// then solves the bordered matrix T + u·e_{n−1}ᵀ: tridiagonal plus one dense
// last column, the shape of QWM's region Jacobian (paper §IV-B).
type Tridiag struct {
	Sub, Diag, Sup []float64
}

// NewTridiag allocates a zero n×n tridiagonal matrix.
func NewTridiag(n int) *Tridiag {
	if n < 1 {
		panic("la: tridiagonal order must be >= 1")
	}
	return &Tridiag{
		Sub:  make([]float64, n-1),
		Diag: make([]float64, n),
		Sup:  make([]float64, n-1),
	}
}

// N returns the order of the matrix.
func (t *Tridiag) N() int { return len(t.Diag) }

// Dense expands the tridiagonal matrix into a dense Matrix (for testing and
// the LU fallback path).
func (t *Tridiag) Dense() *Matrix {
	n := t.N()
	m := NewMatrix(n, n)
	t.DenseInto(m)
	return m
}

// DenseInto writes the dense expansion of the tridiagonal matrix into a
// caller-owned n×n matrix, zeroing entries off the three bands. It is the
// allocation-free core of Dense.
func (t *Tridiag) DenseInto(m *Matrix) {
	n := t.N()
	if m.Rows != n || m.Cols != n {
		panic("la: Tridiag.DenseInto dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, t.Diag[i])
		if i > 0 {
			m.Set(i, i-1, t.Sub[i-1])
		}
		if i < n-1 {
			m.Set(i, i+1, t.Sup[i])
		}
	}
}

// BorderedDenseInto writes the dense form of the bordered matrix
// T + u·e_{n−1}ᵀ into a caller-owned n×n matrix: the tridiagonal expansion
// with u[i] added to entry (i, n−1). A nil u is no border. This is the matrix
// SolveBorderedInto solves, element for element.
func (t *Tridiag) BorderedDenseInto(u []float64, m *Matrix) {
	t.DenseInto(m)
	n := t.N()
	if u == nil {
		return
	}
	if len(u) != n {
		panic("la: Tridiag.BorderedDenseInto dimension mismatch")
	}
	for i, v := range u {
		m.Add(i, n-1, v)
	}
}

// MulVec computes y = T·x.
func (t *Tridiag) MulVec(x []float64) []float64 {
	n := t.N()
	if len(x) != n {
		panic("la: Tridiag.MulVec dimension mismatch")
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := t.Diag[i] * x[i]
		if i > 0 {
			s += t.Sub[i-1] * x[i-1]
		}
		if i < n-1 {
			s += t.Sup[i] * x[i+1]
		}
		y[i] = s
	}
	return y
}

// Solve solves T·x = b in O(n); see SolveBorderedInto. It returns
// ErrSingular exactly when dense LU would.
func (t *Tridiag) Solve(b []float64) ([]float64, error) {
	n := t.N()
	if len(b) != n {
		panic("la: Tridiag.Solve dimension mismatch")
	}
	x := make([]float64, n)
	if err := t.SolveBorderedInto(nil, b, x, make([]float64, 4*n)); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveBorderedInto solves (T + u·e_{n−1}ᵀ)·x = b in O(n) by Gaussian
// elimination with partial pivoting, writing the solution into x. u is the
// border column (length n; nil for none) and work is caller-provided
// scratch of length ≥ 4n. b and x may alias. It performs no heap
// allocations and returns ErrSingular when a pivot column is exactly zero.
//
// The kernel performs exactly the floating-point operations SolveDenseInto
// performs on BorderedDenseInto's matrix, minus the ones on structural
// zeros: the same strict-> pivot choice and max == 0 singular test, the same
// row swaps, the same a −= m·b updates in the same order (rows whose
// multiplier is zero are skipped, the right-hand side is not), and the same
// back-substitution order (i+1, i+2, border). For finite inputs free of
// negative zeros whose elimination does not overflow, its result is
// therefore bit-identical to the dense solve's, singular cases included.
//
// Structure: elimination keeps one live row, the row at pivot position k,
// with entries in columns k, k+1 and n−1. Row k+1 arrives untouched with
// columns k, k+1, k+2 and n−1. Whichever wins the pivot becomes row k of U
// (a swap brings the k+2 entry with it); the other, eliminated, becomes the
// next live row. The right-hand side rides along, so forward substitution
// happens during elimination. The last three rows, where the border column
// meets the band, are finished as a small dense block.
func (t *Tridiag) SolveBorderedInto(u, b, x, work []float64) error {
	n := t.N()
	if len(b) != n || len(x) != n || len(work) < 4*n || (u != nil && len(u) != n) {
		panic("la: Tridiag.SolveBorderedInto dimension mismatch")
	}
	// bord returns entry (i, n−1): the band value there plus u[i].
	bord := func(i int, band float64) float64 {
		if u == nil {
			return band
		}
		return band + u[i]
	}

	// The trailing block: rows and columns k0..n−1, right-hand side in
	// column 3.
	k0 := n - 3
	if k0 < 0 {
		k0 = 0
	}
	nb := n - k0
	var blk [3][4]float64
	for r := 0; r < nb; r++ {
		i := k0 + r
		if r > 0 {
			blk[r][r-1] = t.Sub[i-1]
		}
		blk[r][r] = t.Diag[i]
		if r < nb-1 {
			blk[r][r+1] = t.Sup[i]
		}
		blk[r][nb-1] = bord(i, blk[r][nb-1])
		blk[r][3] = b[i]
	}

	if n > 3 {
		// Live row: columns k, k+1, n−1 and right-hand side.
		a0, a1, af, ra := t.Diag[0], t.Sup[0], bord(0, 0), b[0]
		for k := 0; k < k0; k++ {
			// Row k+1: columns k, k+1, k+2, n−1.
			b0, b1, b2, bf, rb := t.Sub[k], t.Diag[k+1], t.Sup[k+1], bord(k+1, 0), b[k+1]
			w := work[4*k : 4*k+4 : 4*k+4]
			if math.Abs(b0) > math.Abs(a0) {
				w[0], w[1], w[2], w[3] = b0, b1, b2, bf
				x[k] = rb
				m := a0 / b0
				a2 := 0.0
				if m != 0 {
					a1 -= float64(m * b1)
					a2 -= float64(m * b2)
					af -= float64(m * bf)
				}
				ra -= float64(m * rb)
				a0, a1 = a1, a2
			} else {
				if a0 == 0 {
					return ErrSingular
				}
				w[0], w[1], w[2], w[3] = a0, a1, 0, af
				x[k] = ra
				m := b0 / a0
				if m != 0 {
					b1 -= float64(m * a1)
					bf -= float64(m * af)
				}
				rb -= float64(m * ra)
				a0, a1, af, ra = b1, b2, bf, rb
			}
		}
		blk[0] = [4]float64{a0, a1, af, ra}
	}

	// Dense elimination of the trailing block, as factorInPlace does it.
	for k := 0; k < nb; k++ {
		p, max := k, math.Abs(blk[k][k])
		for i := k + 1; i < nb; i++ {
			if a := math.Abs(blk[i][k]); a > max {
				p, max = i, a
			}
		}
		if max == 0 {
			return ErrSingular
		}
		blk[k], blk[p] = blk[p], blk[k]
		for i := k + 1; i < nb; i++ {
			m := blk[i][k] / blk[k][k]
			if m != 0 {
				for j := k + 1; j < nb; j++ {
					blk[i][j] -= float64(m * blk[k][j])
				}
			}
			blk[i][3] -= float64(m * blk[k][3])
		}
	}
	for i := nb - 1; i >= 0; i-- {
		s := blk[i][3]
		for j := i + 1; j < nb; j++ {
			s -= float64(blk[i][j] * x[k0+j])
		}
		x[k0+i] = s / blk[i][i]
	}
	// Back substitution through the banded rows; x[k] holds y_k until then.
	for k := k0 - 1; k >= 0; k-- {
		w := work[4*k : 4*k+4 : 4*k+4]
		s := x[k]
		s -= float64(w[1] * x[k+1])
		s -= float64(w[2] * x[k+2])
		s -= float64(w[3] * x[n-1])
		x[k] = s / w[0]
	}
	return nil
}
