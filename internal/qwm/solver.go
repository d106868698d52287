package qwm

import (
	"fmt"
	"math"

	"qwm/internal/faultinject"
	"qwm/internal/la"
)

// event closes a region's algebraic system: the turn-on condition of the
// next stack transistor (paper Eq. 7, last line) or an output-level crossing
// for the final regions. eval returns the residual, its derivative with
// respect to the top active node voltage, and its direct time derivative.
// The name is formatted lazily (diagnostics only) so constructing an event
// on the hot path does not allocate a string.
type event struct {
	kind string  // "turn-on" or "cross"
	arg  float64 // element index or target level
	eval func(tauP, vTop float64) (f, dfdv, dfdt float64)
}

func (ev *event) name() string {
	if ev.kind == "turn-on" {
		return fmt.Sprintf("turn-on[%d]", int(ev.arg))
	}
	return fmt.Sprintf("cross[%.3g]", ev.arg)
}

// turnOnEvent builds the G = V + Vth condition for transistor element i,
// whose lower node is the current top active node.
func (e *engine) turnOnEvent(i int) event {
	el := e.ch.Elems[i]
	return event{
		kind: "turn-on",
		arg:  float64(i),
		eval: func(tauP, vTop float64) (float64, float64, float64) {
			const h = 1e-4
			g := el.Gate.Eval(tauP)
			th := el.Model.Threshold(vTop)
			dth := (el.Model.Threshold(vTop+h) - el.Model.Threshold(vTop-h)) / (2 * h)
			// Gate slope for ramp inputs; steps contribute zero almost
			// everywhere (the bisection fallback handles the jump itself).
			const ht = 1e-13
			dg := (el.Gate.Eval(tauP+ht) - el.Gate.Eval(tauP-ht)) / (2 * ht)
			return g - vTop - th, -1 - dth, dg
		},
	}
}

// crossEvent builds the V_output = target condition for the final regions.
func (e *engine) crossEvent(target float64) event {
	return event{
		kind: "cross",
		arg:  target,
		eval: func(tauP, vTop float64) (float64, float64, float64) {
			return vTop - target, 1, 0
		},
	}
}

// regionSys holds the scratch state for one region's algebraic system with
// L active nodes: unknowns x = (α_1 … α_L, τ′).
type regionSys struct {
	e   *engine
	L   int
	ev  event
	lin bool // linear-waveform ablation: x are constant currents, not slopes

	v    []float64 // node voltages at τ′, index 0..m
	vdot []float64 // node dV/dt at τ′, index 0..m
	j    []float64 // element currents, index 0..L (j[L] ≡ 0)
	dLow []float64 // ∂J_i/∂V_lower
	dUp  []float64 // ∂J_i/∂V_upper

	iScale float64 // residual normalization for the current rows
}

// newRegionSys prepares the engine's single region-system header for a new
// region: all state slices are views into the pooled scratch, so entering a
// region allocates nothing but the event closure.
func (e *engine) newRegionSys(L int, ev event) *regionSys {
	s := e.scr
	rs := &e.rs
	rs.e, rs.L, rs.ev, rs.lin = e, L, ev, e.o.LinearWaveform
	rs.v = s.rsV[:e.m+1]
	rs.vdot = s.rsVdot[:e.m+1]
	rs.j = s.rsJ[:L+1]
	rs.dLow = s.rsDLow[:L+1]
	rs.dUp = s.rsDUp[:L+1]
	rs.iScale = 1e-7
	for k := 1; k <= L; k++ {
		if a := math.Abs(e.cur[k]); a > rs.iScale {
			rs.iScale = a
		}
	}
	return rs
}

// stateAt fills node voltages and slopes at τ′ for the quadratic model
// V_k(τ′) = V_k + (I_k·Δ + α_k·Δ²/2)/C_k (paper Eq. 6).
func (rs *regionSys) stateAt(alpha []float64, tauP float64) {
	e := rs.e
	delta := tauP - e.t
	for k := 1; k <= e.m; k++ {
		if k <= rs.L {
			ik := e.cur[k] + alpha[k-1]*delta
			vk := e.v[k] + (e.cur[k]*delta+0.5*alpha[k-1]*delta*delta)/e.capn[k]
			if rs.lin {
				ik = alpha[k-1]
				vk = e.v[k] + alpha[k-1]*delta/e.capn[k]
			}
			rs.v[k] = vk
			rs.vdot[k] = ik / e.capn[k]
		} else {
			rs.v[k] = e.v[k]
			rs.vdot[k] = 0
		}
	}
}

// currents evaluates the conducting element currents and derivatives at τ′.
func (rs *regionSys) currents(tauP float64) {
	for i := 0; i < rs.L; i++ {
		rs.j[i], rs.dLow[i], rs.dUp[i] = rs.e.elemJ(i, tauP, rs.v[i], rs.v[i+1])
	}
	rs.j[rs.L], rs.dLow[rs.L], rs.dUp[rs.L] = 0, 0, 0
}

// residual fills F (length L+1) at x = (α, τ′); returns false for invalid or
// non-finite states.
func (rs *regionSys) residual(x, F []float64) bool {
	e := rs.e
	L := rs.L
	tauP := x[L]
	delta := tauP - e.t
	if delta <= 0 || math.IsNaN(tauP) {
		return false
	}
	rs.stateAt(x[:L], tauP)
	rs.currents(tauP)
	for k := 1; k <= L; k++ {
		ik := e.cur[k] + x[k-1]*delta
		if rs.lin {
			ik = x[k-1]
		}
		F[k-1] = ik - (rs.j[k] - rs.j[k-1])
	}
	fe, _, _ := rs.ev.eval(tauP, rs.v[L])
	F[L] = fe
	for _, f := range F {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// norm is the mixed-unit convergence measure: current rows scaled by the
// region's current magnitude, the event row by VDD.
func (rs *regionSys) norm(F []float64) float64 {
	max := 0.0
	for r := 0; r < rs.L; r++ {
		if a := math.Abs(F[r]) / rs.iScale; a > max {
			max = a
		}
	}
	if a := math.Abs(F[rs.L]) / rs.e.ch.VDD; a > max {
		max = a
	}
	return max
}

// jacobian fills the tridiagonal band and the out-of-band τ′ column u
// (paper §IV-B: the bordered matrix T + u·e_Lᵀ). residual must have been
// called at x first.
func (rs *regionSys) jacobian(x []float64, tri *la.Tridiag, u []float64) {
	e := rs.e
	L := rs.L
	delta := x[L] - e.t
	// ∂V_k/∂x_k and ∂I_k/∂x_k depend on the waveform model.
	q := func(k int) float64 {
		if rs.lin {
			return delta / e.capn[k]
		}
		return 0.5 * delta * delta / e.capn[k]
	}
	dIdx := delta
	if rs.lin {
		dIdx = 1
	}

	set := func(r, c int, val float64) {
		switch {
		case c == r:
			tri.Diag[r] = val
		case c == r-1:
			tri.Sub[r-1] = val
		case c == r+1:
			tri.Sup[r] = val
		default:
			// Out-of-band: only the τ′ column (c == L) ever lands here.
			u[r] = val
		}
	}
	for i := range u {
		u[i] = 0
	}
	for i := range tri.Diag {
		tri.Diag[i] = 0
	}
	for i := range tri.Sub {
		tri.Sub[i] = 0
		tri.Sup[i] = 0
	}

	for k := 1; k <= L; k++ {
		r := k - 1
		// ∂F_k/∂α_{k-1}: through J_{k-1}'s lower terminal.
		if k >= 2 {
			set(r, r-1, rs.dLow[k-1]*q(k-1))
		}
		// ∂F_k/∂α_k: direct + both adjacent element currents through V_k.
		diag := dIdx + (rs.dUp[k-1]-rs.dLow[k])*q(k)
		set(r, r, diag)
		// ∂F_k/∂α_{k+1}: through J_k's upper terminal (node k+1 active iff
		// k+1 ≤ L; for k = L, J_L ≡ 0).
		if k+1 <= L {
			set(r, r+1, -rs.dUp[k]*q(k+1))
		}
		// ∂F_k/∂τ′.
		dTau := x[k-1] // dI_k/dτ′ = α_k (zero for the linear model)
		if rs.lin {
			dTau = 0
		}
		dTau -= rs.dLow[k]*rs.vdot[k] + rs.dUp[k]*rs.vdotAt(k+1)
		dTau += rs.dLow[k-1]*rs.vdotAt(k-1) + rs.dUp[k-1]*rs.vdot[k]
		set(r, L, dTau)
	}
	// Event row.
	fe, dfdv, dfdt := rs.ev.eval(x[L], rs.v[L])
	_ = fe
	set(L, L-1, dfdv*q(L))
	set(L, L, dfdv*rs.vdot[L]+dfdt)
}

// vdotAt returns the slope of node k, treating the rail (0) and frozen nodes
// as static.
func (rs *regionSys) vdotAt(k int) float64 {
	if k <= 0 || k > rs.e.m {
		return 0
	}
	return rs.vdot[k]
}

// solveRegion finds (α, τ′) for a region with L active nodes. It first runs
// the paper's joint Newton iteration over several τ′ scale guesses, then
// falls back to a robust bisection on τ′ with an inner α solve.
func (e *engine) solveRegion(L int, ev event) (float64, []float64, error) {
	// Fault site: a forced NR divergence fails the whole region solve, as a
	// Newton blow-up near a flat region would. The site fires in both the
	// Newton and bisection modes, so at rate 1 it defeats the first two
	// ladder tiers and forces the sta caller down to the spice tier.
	if e.o.Fault.Fire(faultinject.NRDivergence, e.o.FaultKey) {
		return 0, nil, fmt.Errorf("%w: injected NR divergence at region %d (faultinject)",
			ErrNoConvergence, e.res.Stats.Regions)
	}

	rs := e.newRegionSys(L, ev)

	if !e.o.ForceBisection {
		// Fixed-size guess ladder (stack-allocated; the hot path must not
		// touch the heap).
		var guesses [7]float64
		ng := 0
		if e.prevDur > 0 {
			guesses[ng] = e.prevDur
			guesses[ng+1] = e.prevDur / 4
			ng += 2
		}
		for _, dg := range [...]float64{1e-12, 1e-11, 1e-10, 1e-9, 5e-9} {
			guesses[ng] = dg
			ng++
		}
		x := e.scr.x[:L+1]
		for _, dg := range guesses[:ng] {
			for i := range x {
				x[i] = 0
			}
			if rs.lin {
				// The linear model's unknowns are absolute currents; start
				// from the region-entry values.
				copy(x[:L], e.cur[1:L+1])
			}
			x[L] = e.t + dg
			if ok := rs.newton(x, e.o.MaxNR, e.o.UseDenseLU); ok {
				// Copy the result out of the shared x buffer: the caller's
				// secant second pass holds it across the next solveRegion
				// call, so the two most recent results rotate through a
				// double buffer.
				out := e.scr.nextAlpha(L)
				copy(out, x[:L])
				return x[L], out, nil
			}
			if e.budgetHit {
				return 0, nil, e.budgetErr()
			}
		}
	}
	// Bisection fallback on τ′ with an inner α solve at each trial point.
	tauP, alpha, err := rs.bisect()
	if err != nil {
		if e.budgetHit {
			return 0, nil, e.budgetErr()
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrNoConvergence, err)
	}
	out := e.scr.nextAlpha(L)
	copy(out, alpha)
	return tauP, out, nil
}

// newton runs the damped joint Newton iteration in place on x, returning
// whether it converged. Every work vector is a view into the engine's
// pooled scratch and the linear solve is the in-place pivoted bordered
// kernel; the dense-LU ablation and the injected-fault recovery solve
// through the scratch's dense workspace, so an iteration performs zero heap
// allocations on every path.
func (rs *regionSys) newton(x []float64, maxIter int, dense bool) bool {
	e := rs.e
	L := rs.L
	s := e.scr
	F := s.F[:L+1]
	if !rs.residual(x, F) {
		return false
	}
	fn := rs.norm(F)

	tri := s.triN(L + 1)
	u := s.u[:L+1]
	neg := s.neg[:L+1]
	trial := s.trial[:L+1]
	Ftrial := s.Ftrial[:L+1]
	dx := s.dx[:L+1]

	const tol = 1e-7
	for iter := 0; iter < maxIter; iter++ {
		e.res.Stats.NRIters++
		if e.o.NRBudget > 0 && e.res.Stats.NRIters > e.o.NRBudget {
			e.budgetHit = true
			return false
		}
		if fn <= tol {
			return true
		}
		rs.jacobian(x, tri, u)
		for i, f := range F {
			neg[i] = -f
		}
		var err error
		// Fault site: a synthetic pivot breakdown detours through the
		// in-scratch dense LU. The bordered kernel performs exactly the
		// dense solve's floating-point operations, so the detour must never
		// change results — only the DenseFallbacks counter. A matrix the
		// kernel finds singular is singular to dense LU too, so a real
		// breakdown needs no fallback.
		if dense || e.o.Fault.Fire(faultinject.PivotBreakdown, e.o.FaultKey) {
			e.res.Stats.DenseFallbacks++
			full := s.denseN(L + 1)
			tri.BorderedDenseInto(u, full)
			err = la.SolveDenseInto(full, neg, dx, s.luN(L+1), s.piv[:L+1])
		} else {
			err = tri.SolveBorderedInto(u, neg, dx, s.work[:4*(L+1)])
		}
		if err != nil {
			return false
		}
		lambda := 1.0
		accepted := false
		for try := 0; try < 12; try++ {
			for i := range trial {
				trial[i] = x[i] + lambda*dx[i]
			}
			if trial[L] <= e.t {
				trial[L] = 0.5 * (x[L] + e.t)
			}
			if rs.residual(trial, Ftrial) {
				if fnT := rs.norm(Ftrial); fnT < fn || fnT <= tol {
					copy(x, trial)
					copy(F, Ftrial)
					fn = fnT
					accepted = true
					break
				}
			}
			lambda /= 2
		}
		if !accepted {
			return fn <= tol
		}
	}
	return fn <= tol
}

// solveAlphas solves the inner L-dimensional current-matching system at a
// fixed τ′ (used by the bisection fallback). Returns the event residual and
// whether the inner solve converged.
func (rs *regionSys) solveAlphas(alpha []float64, tauP float64, maxIter int) (float64, bool) {
	e := rs.e
	L := rs.L
	s := e.scr
	// The joint Newton iteration is never active while the inner solve runs
	// (solveAlphas is reached only from the bisection fallback and the
	// time-capped probe), so the two share the scratch work vectors.
	x := s.x[:L+1]
	copy(x, alpha)
	x[L] = tauP
	F := s.F[:L+1]
	if !rs.residual(x, F) {
		return 0, false
	}
	fn := rs.normAlpha(F)
	tri := s.triN(L + 1)
	u := s.u[:L+1]
	neg := s.neg[:L]
	dx := s.dx[:L]
	trial := s.trial[:L+1]
	Ftrial := s.Ftrial[:L+1]
	const tol = 1e-7
	for iter := 0; iter < maxIter; iter++ {
		e.res.Stats.NRIters++
		if e.o.NRBudget > 0 && e.res.Stats.NRIters > e.o.NRBudget {
			e.budgetHit = true
			return 0, false
		}
		if fn <= tol {
			copy(alpha, x[:L])
			return F[L], true
		}
		rs.jacobian(x, tri, u)
		// Restrict to the leading L×L block, dropping the event row and the
		// τ′ column (which occupies Sup[L-1] in the full band), and solve it
		// with the bordered kernel and no border.
		inner := s.innerN(L)
		for i := 0; i < L; i++ {
			neg[i] = -F[i]
		}
		if err := inner.SolveBorderedInto(nil, neg, dx, s.work[:4*L]); err != nil {
			return 0, false
		}
		lambda := 1.0
		accepted := false
		for try := 0; try < 12; try++ {
			copy(trial, x)
			for i := 0; i < L; i++ {
				trial[i] = x[i] + lambda*dx[i]
			}
			if rs.residual(trial, Ftrial) {
				if fnT := rs.normAlpha(Ftrial); fnT < fn || fnT <= tol {
					copy(x, trial)
					copy(F, Ftrial)
					fn = fnT
					accepted = true
					break
				}
			}
			lambda /= 2
		}
		if !accepted {
			break
		}
	}
	if fn <= tol {
		copy(alpha, x[:L])
		return F[L], true
	}
	return 0, false
}

// normAlpha measures only the current-matching rows.
func (rs *regionSys) normAlpha(F []float64) float64 {
	max := 0.0
	for r := 0; r < rs.L; r++ {
		if a := math.Abs(F[r]) / rs.iScale; a > max {
			max = a
		}
	}
	return max
}

// bisect locates τ′ by expanding a bracket on the event residual and
// bisecting, with the α subsystem solved at every trial point. Slow but
// hard to defeat; used only when the joint Newton iteration fails.
func (rs *regionSys) bisect() (float64, []float64, error) {
	e := rs.e
	L := rs.L
	alpha := e.scr.alphaBis[:L]
	for i := range alpha {
		alpha[i] = 0
	}
	if rs.lin {
		copy(alpha, e.cur[1:L+1])
	}

	// The inner α solve keeps its own iteration floor: the fallback must
	// stay robust even when the caller throttles the joint Newton budget.
	innerIter := e.o.MaxNR
	if innerIter < 30 {
		innerIter = 30
	}
	g := func(tauP float64) (float64, bool) {
		trial := e.scr.alphaTrial[:L]
		copy(trial, alpha)
		fe, ok := rs.solveAlphas(trial, tauP, innerIter)
		if ok {
			copy(alpha, trial)
		}
		return fe, ok
	}
	start := e.t + 1e-15
	ga, okA := g(start)
	if !okA {
		return 0, nil, fmt.Errorf("inner solve failed at region start (%s)", rs.ev.name())
	}
	dt := e.prevDur
	if dt <= 0 {
		dt = 1e-12
	}
	b := e.t + dt
	var gb float64
	found := false
	for b <= e.o.Horizon {
		var okB bool
		gb, okB = g(b)
		if okB && ga*gb <= 0 {
			found = true
			break
		}
		b = e.t + (b-e.t)*2
	}
	if !found {
		return 0, nil, fmt.Errorf("no %s event before the %g s horizon", rs.ev.name(), e.o.Horizon)
	}
	a := start
	for iter := 0; iter < 80 && (b-a) > 1e-18+1e-12*(b-e.t); iter++ {
		mid := 0.5 * (a + b)
		gm, ok := g(mid)
		if !ok {
			// Shrink toward the known-good side.
			b = mid
			continue
		}
		if ga*gm <= 0 {
			b, gb = mid, gm
		} else {
			a, ga = mid, gm
		}
	}
	_ = gb
	tauP := 0.5 * (a + b)
	if fe, ok := g(tauP); !ok || math.IsNaN(fe) {
		return 0, nil, fmt.Errorf("inner solve failed at bisection result (%s)", rs.ev.name())
	}
	return tauP, alpha, nil
}
