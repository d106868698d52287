// Package qwm implements the paper's contribution: piecewise quadratic
// waveform matching for the transient analysis of CMOS charge/discharge
// paths. Instead of integrating the circuit ODEs at thousands of time steps,
// the transient is divided into K regions at the critical points where
// successive stack transistors turn on; inside each region every node
// current is modeled as linear in time (voltage quadratic, one parameter α
// per node), and the α's plus the region end time τ′ are found by one small
// Newton solve that matches capacitor currents against the device I/V model
// at τ′ (paper Eq. 7). The Newton updates exploit the Jacobian's
// tridiagonal-plus-last-column structure in O(K) (paper §IV-B). Where the
// paper uses the Thomas algorithm plus the Sherman–Morrison formula, this
// package uses la.Tridiag.SolveBorderedInto, Gaussian elimination with
// partial pivoting on the bordered matrix: the Jacobian's columns carry
// mixed units (A/s for α, seconds for τ′), which defeats unpivoted Thomas,
// and the pivoted kernel computes the same bits as the dense-LU ablation and
// fault-recovery path.
//
// The engine works in "folded" coordinates: a PMOS pull-up path is analyzed
// as the mathematically identical NMOS-style pull-down of the folded voltage
// v′ = VDD − v, and results are unfolded on output.
package qwm

import (
	"fmt"
	"math"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/wave"
)

// Elem is one series element of a charge/discharge chain. A transistor
// element has Model, W and Gate set; a wire element has R set and Model nil.
type Elem struct {
	Model devmodel.IVModel // folded I/V model; nil for a wire
	W     float64          // transistor width (m)
	R     float64          // wire resistance (Ω) when Model == nil
	Gate  wave.Waveform    // folded gate waveform (transistors only)
	Name  string           // diagnostic label
}

// IsWire reports whether the element is a resistive wire segment.
func (e *Elem) IsWire() bool { return e.Model == nil }

// JunctionAt is a voltage-dependent junction capacitance contribution to a
// chain node from some device (on-path or off-path).
type JunctionAt struct {
	P *mos.Params
	J mos.Junction
}

// NodeCap describes the total capacitance to ground of one chain node:
// a fixed part (loads, overlaps, channel and wire capacitance) plus
// voltage-dependent junctions — the paper's Eq. 1 with the Definition 2
// voltage dependence.
type NodeCap struct {
	Fixed     float64
	Junctions []JunctionAt
}

// At evaluates the node capacitance at a folded node voltage. vdd and the
// chain polarity convert the folded voltage to each junction's reverse bias.
func (nc *NodeCap) At(vFolded, vdd float64, chainPol mos.Polarity) float64 {
	c := nc.Fixed
	for _, ja := range nc.Junctions {
		c += ja.P.JunctionCapAtNode(ja.J, unfold(vFolded, vdd, chainPol), vdd)
	}
	return c
}

// Secant evaluates the effective (charge-based) capacitance over a folded
// voltage excursion [v1, v2]: ΔQ/ΔV for each junction, which makes the
// endpoint of a constant-capacitance region exact even though the junction
// capacitance varies across the region. The engine evaluates At and Secant
// over its compiled junction groups (engine.startCap, engine.secantCap);
// these per-junction forms are their reference.
func (nc *NodeCap) Secant(v1, v2, vdd float64, chainPol mos.Polarity) float64 {
	if math.Abs(v2-v1) < 1e-6 {
		return nc.At(v1, vdd, chainPol)
	}
	c := nc.Fixed
	for _, ja := range nc.Junctions {
		r1 := reverseBias(ja.P, unfold(v1, vdd, chainPol), vdd)
		r2 := reverseBias(ja.P, unfold(v2, vdd, chainPol), vdd)
		if math.Abs(r2-r1) < 1e-9 {
			c += ja.P.JunctionCapAtNode(ja.J, unfold(v1, vdd, chainPol), vdd)
			continue
		}
		dq := ja.P.JunctionCharge(ja.J, r2) - ja.P.JunctionCharge(ja.J, r1)
		c += math.Abs(dq / (r2 - r1))
	}
	return c
}

func unfold(vFolded, vdd float64, chainPol mos.Polarity) float64 {
	if chainPol == mos.PMOS {
		return vdd - vFolded
	}
	return vFolded
}

func reverseBias(p *mos.Params, vUnfolded, vdd float64) float64 {
	if p.Pol == mos.PMOS {
		return vdd - vUnfolded
	}
	return vUnfolded
}

// Chain is the QWM input: a series path of K transistors (and optional
// wires) from a rail to an output node, with per-node capacitances and
// initial voltages. Element i connects node i (lower, rail side) and node
// i+1 (upper); node 0 is the rail (folded 0 V) and node M (M = len(Elems))
// is the output.
type Chain struct {
	// Pol is the polarity of the path transistors; PMOS chains are analyzed
	// folded.
	Pol mos.Polarity
	VDD float64
	// Elems from the rail to the output.
	Elems []*Elem
	// Caps[k-1] is node k's capacitance (k = 1..M).
	Caps []NodeCap
	// V0[k-1] is node k's initial *folded* voltage (k = 1..M). For the
	// precharged-discharge scenario these are all VDD.
	V0 []float64
}

// M returns the number of chain elements (= number of non-rail nodes).
func (ch *Chain) M() int { return len(ch.Elems) }

// Transistors returns the number of transistor elements — the paper's K.
func (ch *Chain) Transistors() int {
	k := 0
	for _, e := range ch.Elems {
		if !e.IsWire() {
			k++
		}
	}
	return k
}

// Validate checks structural invariants before evaluation.
func (ch *Chain) Validate() error {
	m := ch.M()
	if m == 0 {
		return fmt.Errorf("qwm: empty chain")
	}
	if len(ch.Caps) != m || len(ch.V0) != m {
		return fmt.Errorf("qwm: chain with %d elements needs %d caps and initial voltages (have %d, %d)",
			m, m, len(ch.Caps), len(ch.V0))
	}
	if ch.VDD <= 0 {
		return fmt.Errorf("qwm: VDD must be positive")
	}
	k := 0
	for i, e := range ch.Elems {
		if e.IsWire() {
			if e.R <= 0 {
				return fmt.Errorf("qwm: wire element %d with non-positive resistance", i)
			}
			continue
		}
		k++
		if e.W <= 0 {
			return fmt.Errorf("qwm: transistor element %d with non-positive width", i)
		}
		if e.Gate == nil {
			return fmt.Errorf("qwm: transistor element %d without gate waveform", i)
		}
	}
	if k == 0 {
		return fmt.Errorf("qwm: chain has no transistors")
	}
	for i, c := range ch.Caps {
		if c.At(ch.V0[i], ch.VDD, ch.Pol) <= 0 {
			return fmt.Errorf("qwm: node %d has non-positive capacitance", i+1)
		}
	}
	return nil
}

// FoldWave wraps an unfolded waveform as its folded counterpart
// v′(t) = VDD − v(t); used for PMOS chain gate inputs.
type FoldWave struct {
	W   wave.Waveform
	VDD float64
}

// Eval implements wave.Waveform.
func (f FoldWave) Eval(t float64) float64 { return f.VDD - f.W.Eval(t) }

// Span implements wave.Waveform.
func (f FoldWave) Span() (float64, float64) { return f.W.Span() }

// Crossing implements wave.Crosser when the wrapped waveform does, by
// folding the level and flipping the direction.
func (f FoldWave) Crossing(level float64, rising bool) (float64, bool) {
	cr, ok := f.W.(wave.Crosser)
	if !ok {
		return 0, false
	}
	return cr.Crossing(f.VDD-level, !rising)
}

// UnfoldPWQ converts a folded piecewise-quadratic waveform back to real
// voltages for a PMOS chain; NMOS chains are returned as-is.
func UnfoldPWQ(p *wave.PWQ, vdd float64, pol mos.Polarity) *wave.PWQ {
	if pol == mos.NMOS {
		return p
	}
	out := &wave.PWQ{Segs: make([]wave.QuadSeg, len(p.Segs))}
	for i, s := range p.Segs {
		out.Segs[i] = wave.QuadSeg{T0: s.T0, T1: s.T1, V0: vdd - s.V0, S: -s.S, A: -s.A}
	}
	return out
}
