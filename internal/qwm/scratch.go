package qwm

import (
	"sync"

	"qwm/internal/la"
	"qwm/internal/mos"
)

// solverScratch owns every buffer the region solver touches, pre-sized to
// the chain's maximum system order (m+1 unknowns: one α per node plus τ′).
// One scratch serves one engine at a time; Evaluate borrows it from a
// process-wide sync.Pool and returns it when the evaluation finishes, so
// steady-state evaluation — the STA worker pool, Monte Carlo sampling —
// performs zero heap allocations in the Newton inner loop and only O(result)
// allocations per chain.
//
// Ownership rules:
//   - Buffers are views into the scratch; they never escape the engine. The
//     only solver outputs handed across call boundaries are the α vectors,
//     which rotate through the alphaA/alphaB double buffer (at most two
//     region results are live at once: the secant-capacitance second pass
//     holds the first pass's α while re-solving).
//   - The Newton loop (newton) and the inner α solve (solveAlphas) are never
//     active at the same time, so they share F/neg/trial/Ftrial/dx.
//   - The bisection fallback keeps its persistent α in alphaBis and its
//     per-probe trial in alphaTrial, both disjoint from solveAlphas's
//     buffers.
type solverScratch struct {
	n int // current capacity (system order)

	// Engine chain state (index 0..m).
	v, cur, capn, capSaved []float64
	// capV[k] is the voltage node k's capacitance was last evaluated at and
	// capC[k] that capacitance (see engine.startCap).
	capV, capC []float64

	// The chain's junctions compiled into one group per node and device
	// Params: node k's groups are jg[jgOff[k-1]:jgOff[k]].
	jg    []junctionGroup
	jgOff []int

	// Region-system state.
	rsV, rsVdot, rsJ, rsDLow, rsDUp []float64

	// Newton / inner-solve work vectors (length L+1 views).
	F, neg, trial, Ftrial, dx, x []float64
	u                            []float64 // the Jacobian's out-of-band τ′ column
	work                         []float64 // la.Tridiag.SolveBorderedInto scratch, 4n

	// Tridiagonal backing stores; tri is a re-sliced view of them so a
	// region of any order L+1 ≤ n reuses the same memory, and inner views
	// tri's leading block.
	triSub, triDiag, triSup []float64
	tri, inner              la.Tridiag

	// Rotating α result buffers plus the bisection fallback's own pair.
	alphaA, alphaB, alphaBis, alphaTrial []float64
	flip                                 bool

	// Dense-LU workspace for the UseDenseLU ablation and the injected
	// pivot-breakdown recovery: the Jacobian is expanded into dm and solved
	// by LU factoring in place into luM. Both are n×n headers over reusable
	// backing stores.
	dmBuf, luBuf []float64
	piv          []int
	dm, luM      la.Matrix
}

// ensure grows every buffer to order n (idempotent; never shrinks).
func (s *solverScratch) ensure(n int) {
	if s.n >= n {
		return
	}
	s.n = n
	grow := func() []float64 { return make([]float64, n) }
	s.v, s.cur, s.capn, s.capSaved = grow(), grow(), grow(), grow()
	s.capV, s.capC = grow(), grow()
	s.rsV, s.rsVdot, s.rsJ, s.rsDLow, s.rsDUp = grow(), grow(), grow(), grow(), grow()
	s.F, s.neg, s.trial, s.Ftrial, s.dx, s.x = grow(), grow(), grow(), grow(), grow(), grow()
	s.u = grow()
	s.work = make([]float64, 4*n)
	s.triSub, s.triDiag, s.triSup = grow(), grow(), grow()
	s.alphaA, s.alphaB, s.alphaBis, s.alphaTrial = grow(), grow(), grow(), grow()
	s.dmBuf, s.luBuf = make([]float64, n*n), make([]float64, n*n)
	s.piv = make([]int, n)
}

// junctionGroup is the sum of one node's junctions that share a device
// Params (area and perimeter added), so the engine evaluates one Pow pair per
// group instead of one per junction. c and q cache the group's capacitance
// and charge at the node's region-start voltage for the secant pass.
type junctionGroup struct {
	p    *mos.Params
	j    mos.Junction
	c, q float64
}

// compileJunctions groups every node's junctions by device Params. The
// chain's own Caps are left untouched.
func (s *solverScratch) compileJunctions(ch *Chain) {
	s.jg = s.jg[:0]
	s.jgOff = append(s.jgOff[:0], 0)
	for _, nc := range ch.Caps {
		start := len(s.jg)
	next:
		for _, ja := range nc.Junctions {
			for g := start; g < len(s.jg); g++ {
				if s.jg[g].p == ja.P {
					s.jg[g].j.Area += ja.J.Area
					s.jg[g].j.Perim += ja.J.Perim
					continue next
				}
			}
			s.jg = append(s.jg, junctionGroup{p: ja.P, j: ja.J})
		}
		s.jgOff = append(s.jgOff, len(s.jg))
	}
}

// denseN returns the dense fallback matrix re-shaped to order k.
func (s *solverScratch) denseN(k int) *la.Matrix {
	s.dm = la.Matrix{Rows: k, Cols: k, Data: s.dmBuf[:k*k]}
	return &s.dm
}

// luN returns the LU workspace matrix re-shaped to order k.
func (s *solverScratch) luN(k int) *la.Matrix {
	s.luM = la.Matrix{Rows: k, Cols: k, Data: s.luBuf[:k*k]}
	return &s.luM
}

// triN returns the shared tridiagonal work matrix re-sliced to order k.
func (s *solverScratch) triN(k int) *la.Tridiag {
	s.tri.Diag = s.triDiag[:k]
	s.tri.Sub = s.triSub[:k-1]
	s.tri.Sup = s.triSup[:k-1]
	return &s.tri
}

// innerN returns the leading k×k block of the current tri as the inner
// α-solve matrix (no copy).
func (s *solverScratch) innerN(k int) *la.Tridiag {
	s.inner.Diag = s.tri.Diag[:k]
	s.inner.Sub = s.tri.Sub[:k-1]
	s.inner.Sup = s.tri.Sup[:k-1]
	return &s.inner
}

// nextAlpha hands out the other half of the α double buffer. Callers may
// hold at most the two most recent results.
func (s *solverScratch) nextAlpha(L int) []float64 {
	s.flip = !s.flip
	if s.flip {
		return s.alphaA[:L]
	}
	return s.alphaB[:L]
}

// scratchPool shares solver scratch across goroutines: the STA level
// scheduler, the Monte Carlo workers and plain Evaluate callers all draw
// from it, so concurrent evaluation reaches a steady state where no solver
// buffer is ever re-allocated.
var scratchPool = sync.Pool{New: func() any { return new(solverScratch) }}
