// Package la provides the dense and structured linear-algebra kernels the
// timing engines are built on: LU factorization with partial pivoting, an
// O(n) pivoted solver for tridiagonal matrices with an optional dense last
// column (bit-identical to the dense LU on the same matrix), least-squares
// polynomial fitting, polynomial root finding, and a damped Newton–Raphson
// iteration.
//
// Everything is hand-rolled on float64 slices; there are no external
// dependencies. Matrices are small (circuit-sized), so the implementations
// favour clarity and numerical robustness over cache blocking.
package la

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("la: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("la: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Add accumulates v into element (r, c).
func (m *Matrix) Add(r, c int, v float64) { m.Data[r*m.Cols+c] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	n := NewMatrix(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// Zero resets every element to zero, keeping the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = m·x for a square or rectangular m.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("la: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			s += v * x[c]
		}
		y[r] = s
	}
	return y
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			fmt.Fprintf(&b, "% .6g\t", m.At(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MaxAbs returns the largest absolute element value, 0 for empty matrices.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// VecNormInf returns the infinity norm of a vector. NaN elements propagate
// to the result so that diverged iterates are never mistaken for converged
// ones.
func VecNormInf(x []float64) float64 {
	max := 0.0
	for _, v := range x {
		if math.IsNaN(v) {
			return math.NaN()
		}
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// VecNorm2 returns the Euclidean norm of a vector.
func VecNorm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("la: Dot dimension mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
