package qwm

import (
	"testing"

	"qwm/internal/mos"
	"qwm/internal/wave"
)

// chainAllOn builds a K-stack whose gates are all held at VDD and whose
// internal nodes start mostly discharged (a mid-transient state), so every
// element conducts from t = 0 and the engine goes straight to the final
// (output-crossing) regions — the state the Newton hot path spends most of
// its time in.
func chainAllOn(t testing.TB, k int, w, cl float64) *Chain {
	tbl := nmosTable(t)
	ch := &Chain{Pol: mos.NMOS, VDD: tech.VDD}
	for i := 0; i < k; i++ {
		ch.Elems = append(ch.Elems, &Elem{Model: tbl, W: w, Gate: wave.DC(tech.VDD)})
		ch.Caps = append(ch.Caps, NodeCap{Fixed: cl})
		// Internal nodes low enough that VDD on the gate clears the
		// body-adjusted threshold; the output node still high so the final
		// crossing regions have work to do.
		v0 := 0.05 * tech.VDD * float64(i+1)
		if i == k-1 {
			v0 = 0.8 * tech.VDD
		}
		ch.V0 = append(ch.V0, v0)
	}
	return ch
}

// TestNewtonZeroAllocs pins the tentpole guarantee: once the engine's
// scratch is warm, one full joint Newton solve of a region — residuals,
// Jacobian assembly, the pivoted bordered-tridiagonal update
// (la.Tridiag.SolveBorderedInto), damped line search — performs zero heap
// allocations per iteration.
func TestNewtonZeroAllocs(t *testing.T) {
	ch := chainAllOn(t, 4, 1e-6, 6e-15)
	e, err := newEngine(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	e.advanceFront()
	if e.front != e.m {
		t.Fatalf("front = %d, want %d (all gates at VDD must conduct)", e.front, e.m)
	}
	e.refreshCaps()
	e.refreshCurrents()

	// A final-region crossing a little below the current output level, as
	// the region loop's excursion cap would choose.
	target := e.v[e.m] - 0.1*ch.VDD
	ev := e.crossEvent(target)
	rs := e.newRegionSys(e.m, ev)

	// Find a τ′ guess the joint Newton converges from (the engine's own
	// guess ladder).
	x0 := make([]float64, e.m+1)
	x := make([]float64, e.m+1)
	found := false
	for _, dg := range []float64{1e-12, 1e-11, 1e-10, 1e-9} {
		for i := range x {
			x[i] = 0
		}
		x[e.m] = e.t + dg
		copy(x0, x)
		if rs.newton(x, e.o.MaxNR, false) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("joint Newton did not converge from any ladder guess")
	}

	// Warm once more, then measure. Each run replays the full iteration
	// sequence from the same starting point.
	failed := false
	allocs := testing.AllocsPerRun(100, func() {
		copy(x, x0)
		if !rs.newton(x, e.o.MaxNR, false) {
			failed = true
		}
	})
	if failed {
		t.Fatal("newton stopped converging during the measurement loop")
	}
	if allocs != 0 {
		t.Errorf("joint Newton solve allocated %.2f times per run, want 0 "+
			"(was ~8 slice allocations per iteration before the scratch pool)", allocs)
	}
}

// TestSolveAlphasZeroAllocs covers the bisection fallback's inner solve: it
// shares the scratch with the joint iteration and must also stay off the
// heap.
func TestSolveAlphasZeroAllocs(t *testing.T) {
	ch := chainAllOn(t, 4, 1e-6, 6e-15)
	e, err := newEngine(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	e.advanceFront()
	e.refreshCaps()
	e.refreshCurrents()

	ev := e.crossEvent(e.v[e.m] - 0.1*ch.VDD)
	rs := e.newRegionSys(e.m, ev)
	alpha := make([]float64, e.m)
	tauP := e.t + 1e-12
	if _, ok := rs.solveAlphas(alpha, tauP, 40); !ok {
		t.Fatal("inner α solve did not converge at the probe point")
	}
	failed := false
	allocs := testing.AllocsPerRun(100, func() {
		for i := range alpha {
			alpha[i] = 0
		}
		if _, ok := rs.solveAlphas(alpha, tauP, 40); !ok {
			failed = true
		}
	})
	if failed {
		t.Fatal("inner α solve stopped converging during measurement")
	}
	if allocs != 0 {
		t.Errorf("inner α solve allocated %.2f times per run, want 0", allocs)
	}
}

// TestEvaluateSteadyStateAllocs is the end-to-end memory-discipline check:
// with a warm scratch pool, a full chain evaluation allocates only its
// result structures (waveform segments, the Result), independent of the
// Newton iteration count.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	ch := fixedStack(t, 5, 1.2e-6, 6e-15, 0)
	// Warm the pool and record the iteration count once.
	res, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	iters := res.NRIterations
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Evaluate(ch, Options{}); err != nil {
			t.Error(err)
		}
	})
	// Result assembly is O(regions); it must not scale with NR iterations
	// (the pre-refactor engine allocated ~8 slices per iteration).
	if iters > 0 && allocs > float64(iters) {
		t.Errorf("Evaluate allocated %.0f objects for %d NR iterations — the inner loop is allocating", allocs, iters)
	}
}
