package la

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// borderedSystem is one test case for the bordered kernel: a tridiagonal
// band, a border column and a right-hand side.
type borderedSystem struct {
	tri  *Tridiag
	u, b []float64
}

// entrySource draws matrix entries: exact zeros, or signed values spread
// over 30 decades (1e-15 … 1e15), the range QWM's mixed-unit columns span.
type entrySource interface {
	Intn(n int) int
	Float64() float64
}

func drawEntry(src entrySource) float64 {
	if src.Intn(8) == 0 {
		return 0
	}
	v := (1 + src.Float64()) * math.Pow(10, float64(src.Intn(31)-15))
	if src.Intn(2) == 0 {
		v = -v
	}
	return v
}

// drawBordered builds an order-1…32 bordered system. A third of the rows get
// a sub-diagonal far larger than the diagonal, which forces row swaps; one
// case in twenty has a zeroed column, which makes it exactly singular; one
// case in four has no border (u nil), the plain tridiagonal solve.
func drawBordered(src entrySource) borderedSystem {
	n := 1 + src.Intn(32)
	s := borderedSystem{tri: NewTridiag(n), u: make([]float64, n), b: make([]float64, n)}
	for i := 0; i < n; i++ {
		s.tri.Diag[i] = drawEntry(src)
		s.u[i] = drawEntry(src)
		s.b[i] = drawEntry(src)
		if i < n-1 {
			s.tri.Sup[i] = drawEntry(src)
			s.tri.Sub[i] = drawEntry(src)
			if src.Intn(3) == 0 {
				s.tri.Sub[i] = 1e3 * (math.Abs(s.tri.Diag[i]) + 1)
			}
		}
	}
	if src.Intn(20) == 0 {
		c := src.Intn(n)
		s.tri.Diag[c] = 0
		if c > 0 {
			s.tri.Sup[c-1] = 0
		}
		if c < n-1 {
			s.tri.Sub[c] = 0
		}
		if c == n-1 {
			for i := range s.u {
				s.u[i] = 0
			}
		}
	}
	if src.Intn(4) == 0 {
		s.u = nil
	}
	return s
}

// compareWithDense solves s with the bordered kernel and with SolveDenseInto
// on the same matrix, and reports whether the dense factorization swapped
// rows and whether the matrix was singular. The two solves must agree bit
// for bit, singular verdict included.
func compareWithDense(s borderedSystem) (swapped, singular bool, err error) {
	n := s.tri.N()
	a := NewMatrix(n, n)
	s.tri.BorderedDenseInto(s.u, a)
	xd := make([]float64, n)
	piv := make([]int, n)
	errD := SolveDenseInto(a, s.b, xd, NewMatrix(n, n), piv)
	xk := make([]float64, n)
	errK := s.tri.SolveBorderedInto(s.u, s.b, xk, make([]float64, 4*n))
	if !errors.Is(errK, errD) {
		return false, false, fmt.Errorf("n=%d: kernel error %v, dense error %v", n, errK, errD)
	}
	if errD != nil {
		return false, true, nil
	}
	for i, p := range piv {
		if p != i {
			swapped = true
		}
	}
	for i := range xd {
		if math.Float64bits(xk[i]) != math.Float64bits(xd[i]) {
			return swapped, false, fmt.Errorf("n=%d: x[%d] = %v (kernel) vs %v (dense LU)", n, i, xk[i], xd[i])
		}
	}
	return swapped, false, nil
}

// TestSolveBorderedMatchesDenseBits is the kernel's contract: on bordered
// matrices with entries across 30 decades, zero diagonals, forced row swaps
// and exactly singular columns, SolveBorderedInto returns the same bits as
// dense LU — or the same ErrSingular.
func TestSolveBorderedMatchesDenseBits(t *testing.T) {
	trials := 50000
	if testing.Short() {
		trials = 5000
	}
	r := rand.New(rand.NewSource(1))
	swaps, singulars, unbordered, unborderedSwaps := 0, 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		s := drawBordered(r)
		swapped, singular, err := compareWithDense(s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if swapped {
			swaps++
		}
		if singular {
			singulars++
		}
		if s.u == nil {
			unbordered++
			if swapped {
				unborderedSwaps++
			}
		}
	}
	// The generator must keep exercising the pivoting and singular paths,
	// with and without a border.
	if swaps < trials/2 {
		t.Errorf("only %d of %d trials swapped rows", swaps, trials)
	}
	if singulars < trials/100 {
		t.Errorf("only %d of %d trials were singular", singulars, trials)
	}
	if unbordered < trials/8 || unborderedSwaps < unbordered/2 {
		t.Errorf("%d of %d trials had no border, %d of them swapped rows", unbordered, trials, unborderedSwaps)
	}
}

// byteSource feeds fuzz bytes to drawBordered; past the end it reads zeros.
type byteSource struct{ data []byte }

func (s *byteSource) next() uint32 {
	var buf [4]byte
	k := copy(buf[:], s.data)
	s.data = s.data[k:]
	return binary.LittleEndian.Uint32(buf[:])
}

func (s *byteSource) Intn(n int) int   { return int(s.next() % uint32(n)) }
func (s *byteSource) Float64() float64 { return float64(s.next()) / (1 << 32) }

// FuzzSolveBordered checks the bit-identity contract on fuzzer-chosen
// systems: the input bytes drive the same generator the property test uses.
func FuzzSolveBordered(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+r.Intn(512))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := compareWithDense(drawBordered(&byteSource{data: data})); err != nil {
			t.Fatal(err)
		}
	})
}
