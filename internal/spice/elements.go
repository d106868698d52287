package spice

import (
	"qwm/internal/la"
	"qwm/internal/mos"
)

// ctx carries one Newton evaluation: the current iterate x, the residual f
// and Jacobian to fill, the evaluation time and integration step.
type ctx struct {
	x    []float64
	f    []float64
	jac  *la.Matrix
	t    float64 // time at the end of the step being solved
	h    float64 // step size (ignored when dc)
	dc   bool    // DC analysis: charge elements are open
	trap bool    // trapezoidal (else backward Euler)
}

// v returns the voltage of node index i, with ground (-1) fixed at 0.
func (c *ctx) v(i int) float64 {
	if i < 0 {
		return 0
	}
	return c.x[i]
}

func (c *ctx) addF(i int, val float64) {
	if i >= 0 {
		c.f[i] += val
	}
}

func (c *ctx) addJ(i, j int, val float64) {
	if i >= 0 && j >= 0 {
		c.jac.Add(i, j, val)
	}
}

// element is anything that stamps KCL residual and Jacobian contributions.
type element interface {
	stamp(c *ctx)
}

// stateful elements carry integration state across time steps.
type stateful interface {
	initState(c *ctx)
	accept(c *ctx)
}

// resistorElem is a linear conductance between nodes a and b.
type resistorElem struct {
	a, b int
	g    float64
}

func (r *resistorElem) stamp(c *ctx) {
	i := r.g * (c.v(r.a) - c.v(r.b))
	c.addF(r.a, i)
	c.addF(r.b, -i)
	c.addJ(r.a, r.a, r.g)
	c.addJ(r.a, r.b, -r.g)
	c.addJ(r.b, r.a, -r.g)
	c.addJ(r.b, r.b, r.g)
}

// vsrcElem is an independent voltage source with branch-current unknown br.
type vsrcElem struct {
	a, b, br int
	wave     interface{ Eval(t float64) float64 }
}

func (v *vsrcElem) value(t float64) float64 {
	if v.wave == nil {
		return 0
	}
	return v.wave.Eval(t)
}

func (v *vsrcElem) stamp(c *ctx) {
	ib := c.x[v.br]
	c.addF(v.a, ib)
	c.addF(v.b, -ib)
	c.f[v.br] += c.v(v.a) - c.v(v.b) - v.value(c.t)
	c.addJ(v.a, v.br, 1)
	c.addJ(v.b, v.br, -1)
	c.addJ(v.br, v.a, 1)
	c.addJ(v.br, v.b, -1)
}

// chargeElem is a two-terminal charge-based capacitance: q = qfn(va − vb).
// Linear capacitors and nonlinear junction capacitances share this code;
// integrating charge (not capacitance) keeps nonlinear parasitics
// charge-conserving under both integration methods.
type chargeElem struct {
	a, b         int
	qfn          func(v float64) (q, cap float64)
	qPrev, iPrev float64
}

func (e *chargeElem) stamp(c *ctx) {
	if c.dc {
		return
	}
	q, cp := e.qfn(c.v(e.a) - c.v(e.b))
	var i, geq float64
	if c.trap {
		i = 2*(q-e.qPrev)/c.h - e.iPrev
		geq = 2 * cp / c.h
	} else {
		i = (q - e.qPrev) / c.h
		geq = cp / c.h
	}
	c.addF(e.a, i)
	c.addF(e.b, -i)
	c.addJ(e.a, e.a, geq)
	c.addJ(e.a, e.b, -geq)
	c.addJ(e.b, e.a, -geq)
	c.addJ(e.b, e.b, geq)
}

func (e *chargeElem) initState(c *ctx) {
	q, _ := e.qfn(c.v(e.a) - c.v(e.b))
	e.qPrev = q
	e.iPrev = 0
}

func (e *chargeElem) accept(c *ctx) {
	q, _ := e.qfn(c.v(e.a) - c.v(e.b))
	var i float64
	if c.trap {
		i = 2*(q-e.qPrev)/c.h - e.iPrev
	} else {
		i = (q - e.qPrev) / c.h
	}
	e.qPrev = q
	e.iPrev = i
}

// linearQ returns a charge function for a constant capacitance.
func linearQ(capacitance float64) func(float64) (float64, float64) {
	return func(v float64) (float64, float64) {
		return capacitance * v, capacitance
	}
}

// junctionQ returns the charge function of a diffusion junction between the
// diffusion node (terminal a) and the body node (terminal b). For NMOS the
// reverse bias is va − vb; for PMOS it is vb − va, with the stored charge
// negated so dq/dv stays a positive capacitance in the a-to-b convention.
func junctionQ(p *mos.Params, j mos.Junction) func(float64) (float64, float64) {
	if p.Pol == mos.PMOS {
		return func(v float64) (float64, float64) {
			c, q := p.JunctionCapCharge(j, -v)
			return -q, c
		}
	}
	return func(v float64) (float64, float64) {
		c, q := p.JunctionCapCharge(j, v)
		return q, c
	}
}

// mosElem is the MOSFET channel (DC current only; parasitic charges are
// separate chargeElems attached during construction).
type mosElem struct {
	d, g, s, b int
	p          *mos.Params
	w, l       float64
}

func (m *mosElem) stamp(c *ctx) {
	iv := m.p.Ids(m.w, m.l, c.v(m.g), c.v(m.d), c.v(m.s), c.v(m.b))
	c.addF(m.d, iv.I)
	c.addF(m.s, -iv.I)
	c.addJ(m.d, m.g, iv.DVg)
	c.addJ(m.d, m.d, iv.DVd)
	c.addJ(m.d, m.s, iv.DVs)
	c.addJ(m.s, m.g, -iv.DVg)
	c.addJ(m.s, m.d, -iv.DVd)
	c.addJ(m.s, m.s, -iv.DVs)
}
