package la

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDDTridiag(r *rand.Rand, n int) *Tridiag {
	t := NewTridiag(n)
	for i := 0; i < n; i++ {
		t.Diag[i] = 4 + r.Float64() // diagonally dominant
		if i < n-1 {
			t.Sup[i] = r.NormFloat64()
			t.Sub[i] = r.NormFloat64()
		}
	}
	return t
}

func TestTridiagSolveKnown(t *testing.T) {
	// [2 1 0; 1 2 1; 0 1 2] x = [4 8 8] -> x = [1 2 3]
	tri := NewTridiag(3)
	tri.Diag = []float64{2, 2, 2}
	tri.Sub = []float64{1, 1}
	tri.Sup = []float64{1, 1}
	x, err := tri.Solve([]float64{4, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestTridiagOrderOne(t *testing.T) {
	tri := NewTridiag(1)
	tri.Diag[0] = 5
	x, err := tri.Solve([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Errorf("x = %g, want 2", x[0])
	}
}

func TestTridiagSingular(t *testing.T) {
	tri := NewTridiag(2)
	tri.Diag = []float64{0, 0}
	tri.Sub = []float64{0}
	tri.Sup = []float64{0}
	if _, err := tri.Solve([]float64{1, 1}); err == nil {
		t.Fatal("expected singular error for zero matrix")
	}
}

// Property: Solve agrees with dense LU on random diagonally dominant
// tridiagonal systems.
func TestTridiagMatchesLUProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(15)
		tri := randomDDTridiag(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x1, err := tri.Solve(b)
		if err != nil {
			return false
		}
		x2, err := SolveDense(tri.Dense(), b)
		if err != nil {
			return false
		}
		for i := range x1 {
			if !almostEq(x1[i], x2[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: T·Solve(T, b) reproduces b.
func TestTridiagResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		tri := randomDDTridiag(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		x, err := tri.Solve(b)
		if err != nil {
			return false
		}
		res := tri.MulVec(x)
		for i := range res {
			if !almostEq(res[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The QWM Jacobian shape: tridiagonal everywhere except a dense last
// column, u holding that column's out-of-band part.
func TestSolveBorderedLastColumn(t *testing.T) {
	n := 5
	r := rand.New(rand.NewSource(42))
	tri := randomDDTridiag(r, n)
	u := make([]float64, n)
	for i := 0; i < n-2; i++ { // out-of-band rows of the last column
		u[i] = r.NormFloat64()
	}
	b := []float64{1, 2, 3, 4, 5}
	x := make([]float64, n)
	if err := tri.SolveBorderedInto(u, b, x, make([]float64, 4*n)); err != nil {
		t.Fatal(err)
	}
	dense := tri.Dense()
	for i := 0; i < n; i++ {
		dense.Add(i, n-1, u[i])
	}
	x2, err := SolveDense(dense, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], x2[i], 1e-9) {
			t.Errorf("x[%d]: bordered %g vs LU %g", i, x[i], x2[i])
		}
	}
}

func TestTridiagDense(t *testing.T) {
	tri := NewTridiag(3)
	tri.Diag = []float64{1, 2, 3}
	tri.Sub = []float64{4, 5}
	tri.Sup = []float64{6, 7}
	d := tri.Dense()
	want := FromRows([][]float64{
		{1, 6, 0},
		{4, 2, 7},
		{0, 5, 3},
	})
	for i := range want.Data {
		if d.Data[i] != want.Data[i] {
			t.Fatalf("Dense mismatch:\n%v\nwant\n%v", d, want)
		}
	}
}

// SolveBorderedInto with a nil border must match Solve exactly and
// tolerate b aliasing x.
func TestSolveBorderedIntoMatchesSolve(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		tri := randomDDTridiag(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		want, err := tri.Solve(b)
		if err != nil {
			return false
		}
		work := make([]float64, 4*n)
		x := make([]float64, n)
		if err := tri.SolveBorderedInto(nil, b, x, work); err != nil {
			return false
		}
		for i := range x {
			if x[i] != want[i] {
				return false
			}
		}
		// Aliased: solve in place on a copy of b.
		ali := make([]float64, n)
		copy(ali, b)
		if err := tri.SolveBorderedInto(nil, ali, ali, work); err != nil {
			return false
		}
		for i := range ali {
			if ali[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The bordered kernel is the QWM Newton hot path: it must not touch the
// heap at all.
func TestSolveIntoZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 11
	tri := randomDDTridiag(r, n)
	u := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n-2; i++ {
		u[i] = r.NormFloat64() * 0.3
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	x := make([]float64, n)
	work := make([]float64, 4*n)
	bad := false
	allocs := testing.AllocsPerRun(200, func() {
		if err := tri.SolveBorderedInto(nil, b, x, work); err != nil {
			bad = true
		}
		if err := tri.SolveBorderedInto(u, b, x, work); err != nil {
			bad = true
		}
	})
	if bad {
		t.Fatal("solve failed")
	}
	if allocs != 0 {
		t.Errorf("in-place solves allocated %.1f times per run, want 0", allocs)
	}
}

func TestTridiagDenseIntoMatchesDense(t *testing.T) {
	tri := &Tridiag{
		Diag: []float64{4, 5, 6, 7},
		Sub:  []float64{1, 2, 3},
		Sup:  []float64{-1, -2, -3},
	}
	want := tri.Dense()
	m := NewMatrix(4, 4)
	// Pre-poison to verify DenseInto zeroes off-band entries.
	for i := range m.Data {
		m.Data[i] = 99
	}
	tri.DenseInto(m)
	for i := range want.Data {
		if m.Data[i] != want.Data[i] {
			t.Fatalf("Data[%d] = %g, want %g", i, m.Data[i], want.Data[i])
		}
	}
}
