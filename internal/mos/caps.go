package mos

import "math"

// Junction describes a source/drain diffusion region geometry. When Area and
// Perim are zero, DefaultJunction derives them from the device width and the
// technology's diffusion extent — the paper's "optionally, the area and
// perimeter of its junctions".
type Junction struct {
	Area  float64 // m²
	Perim float64 // m
}

// DefaultJunction returns the junction geometry implied by a device width.
func (p *Params) DefaultJunction(w float64) Junction {
	return Junction{
		Area:  w * p.LDiff,
		Perim: 2*p.LDiff + w,
	}
}

// JunctionCap returns the depletion capacitance of a diffusion junction
// reverse-biased by vr volts (vr ≥ 0 reverse; small forward bias is clamped
// smoothly). This is the voltage-dependent parasitic the paper's Definition 2
// exposes through srcCap/snkCap.
func (p *Params) JunctionCap(j Junction, vr float64) float64 {
	c, _ := p.JunctionCapCharge(j, vr)
	return c
}

// JunctionCharge returns the depletion charge stored on a diffusion junction
// at reverse bias vr, i.e. the integral of JunctionCap from 0 to vr. The
// SPICE substrate integrates charge rather than capacitance so that its
// nonlinear parasitics conserve charge exactly. Below the −0.5·PB clamp the
// charge continues linearly with the clamped capacitance.
func (p *Params) JunctionCharge(j Junction, vr float64) float64 {
	_, q := p.JunctionCapCharge(j, vr)
	return q
}

// JunctionCapCharge returns JunctionCap(j, vr) and JunctionCharge(j, vr)
// from a single pair of Pow calls: the charge's f^(1−m) is f/f^m.
func (p *Params) JunctionCapCharge(j Junction, vr float64) (c, q float64) {
	// Clamp the bias so the (1 + V/PB) factor stays positive: below
	// −0.5·PB the depletion approximation has no meaning anyway.
	clamp := -0.5 * p.PB
	vc := vr
	if vc < clamp {
		vc = clamp
	}
	f := 1 + vc/p.PB
	fa, fs := math.Pow(f, p.MJ), math.Pow(f, p.MJSW)
	c = p.CJ*j.Area/fa + p.CJSW*j.Perim/fs
	area := p.CJ * j.Area * p.PB / (1 - p.MJ) * (1 - f/fa)
	side := p.CJSW * j.Perim * p.PB / (1 - p.MJSW) * (1 - f/fs)
	// Charge of a reverse-biased junction decreases with vr in this sign
	// convention (capacitor discharges as depletion widens); return the
	// stored charge as the integral ∫C dv, which is positive for vr > 0.
	q = -(area + side)
	if vr < clamp {
		q += (vr - clamp) * c
	}
	return c, q
}

// JunctionCapAtNode converts a node voltage into the reverse bias seen by a
// diffusion tied to that node: for NMOS the junction is diffusion-to-ground
// (reverse bias = v), for PMOS diffusion-to-nwell at VDD (reverse bias =
// vdd − v).
func (p *Params) JunctionCapAtNode(j Junction, v, vdd float64) float64 {
	vr := v
	if p.Pol == PMOS {
		vr = vdd - v
	}
	return p.JunctionCap(j, vr)
}

// GateCap returns the total gate input capacitance of a device: intrinsic
// channel capacitance plus both overlaps. Used for loading a stage output
// that drives further gates, and as the paper's inputCap.
func (p *Params) GateCap(w, l float64) float64 {
	leff := l - 2*p.LD
	if leff <= 0 {
		leff = l * 0.5
	}
	return p.Cox*w*leff + (p.CGDO+p.CGSO)*w
}

// OverlapCap returns the gate-to-diffusion overlap capacitance on one side
// of a device of width w. It is the Miller coupling path from a switching
// gate onto a chain node.
func (p *Params) OverlapCap(w float64) float64 {
	return p.CGDO * w
}

// ChannelCapSplit returns the portions of the intrinsic channel capacitance
// attributed to the source and drain ends (the 40/40 split in triode,
// degraded toward 2/3–0 in saturation is approximated with a fixed 1/2 split
// each way — adequate for the constant-capacitance assumption QWM makes
// inside a region).
func (p *Params) ChannelCapSplit(w, l float64) (src, snk float64) {
	leff := l - 2*p.LD
	if leff <= 0 {
		leff = l * 0.5
	}
	half := 0.5 * p.Cox * w * leff * 0.8
	return half, half
}
