package mos

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultJunctionGeometry(t *testing.T) {
	j := tech.N.DefaultJunction(1e-6)
	if j.Area != 1e-6*tech.N.LDiff {
		t.Errorf("area = %g", j.Area)
	}
	if j.Perim != 2*tech.N.LDiff+1e-6 {
		t.Errorf("perim = %g", j.Perim)
	}
}

func TestJunctionCapDecreasesWithReverseBias(t *testing.T) {
	j := tech.N.DefaultJunction(1e-6)
	c0 := tech.N.JunctionCap(j, 0)
	c3 := tech.N.JunctionCap(j, 3.3)
	if c0 <= 0 || c3 <= 0 {
		t.Fatalf("caps must be positive: %g %g", c0, c3)
	}
	if c3 >= c0 {
		t.Errorf("junction cap should shrink with reverse bias: C(0)=%g C(3.3)=%g", c0, c3)
	}
	// Zero-bias value should match CJ·A + CJSW·P exactly.
	want := tech.N.CJ*j.Area + tech.N.CJSW*j.Perim
	if !dualAlmostEq(c0, want, 1e-12) {
		t.Errorf("C(0) = %g, want %g", c0, want)
	}
}

func TestJunctionCapForwardBiasClamped(t *testing.T) {
	j := tech.N.DefaultJunction(1e-6)
	c := tech.N.JunctionCap(j, -5)
	climit := tech.N.JunctionCap(j, -0.5*tech.N.PB)
	if c != climit {
		t.Errorf("deep forward bias should clamp: %g vs %g", c, climit)
	}
}

func TestJunctionCapAtNodePolarity(t *testing.T) {
	j := tech.N.DefaultJunction(1e-6)
	// NMOS diffusion at a high node is strongly reverse biased -> small cap.
	nHigh := tech.N.JunctionCapAtNode(j, 3.3, 3.3)
	nLow := tech.N.JunctionCapAtNode(j, 0, 3.3)
	if nHigh >= nLow {
		t.Errorf("NMOS junction cap should be smaller at high node: %g vs %g", nHigh, nLow)
	}
	jp := tech.P.DefaultJunction(1e-6)
	pHigh := tech.P.JunctionCapAtNode(jp, 3.3, 3.3)
	pLow := tech.P.JunctionCapAtNode(jp, 0, 3.3)
	if pLow >= pHigh {
		t.Errorf("PMOS junction cap should be smaller at low node: %g vs %g", pLow, pHigh)
	}
}

func TestGateCapPlausible(t *testing.T) {
	// A 1 µm / 0.35 µm gate is a couple of femtofarads in this process.
	c := tech.N.GateCap(1e-6, 0.35e-6)
	if c < 0.5e-15 || c > 10e-15 {
		t.Errorf("gate cap %g F out of plausible fF range", c)
	}
}

func TestChannelCapSplitSymmetric(t *testing.T) {
	src, snk := tech.N.ChannelCapSplit(1e-6, 0.35e-6)
	if src != snk || src <= 0 {
		t.Errorf("split = %g, %g", src, snk)
	}
}

func TestJunctionChargeZero(t *testing.T) {
	j := tech.N.DefaultJunction(1e-6)
	if q := tech.N.JunctionCharge(j, 0); q != 0 {
		t.Errorf("Q(0) = %g, want 0", q)
	}
}

// Property: dQ/dv equals the junction capacitance (charge conservation
// consistency used by the SPICE substrate), including through the forward-
// bias clamp region.
func TestJunctionChargeDerivativeProperty(t *testing.T) {
	j := tech.N.DefaultJunction(1.5e-6)
	f := func(v float64) bool {
		if v < -2 || v > 5 {
			return true
		}
		const h = 1e-5
		fd := (tech.N.JunctionCharge(j, v+h) - tech.N.JunctionCharge(j, v-h)) / (2 * h)
		c := tech.N.JunctionCap(j, v)
		return dualAlmostEq(fd, c, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: junction capacitance is positive and monotone non-increasing in
// reverse bias over the operating range.
func TestJunctionCapMonotoneProperty(t *testing.T) {
	j := tech.N.DefaultJunction(2e-6)
	f := func(v1, v2 float64) bool {
		if v1 < 0 || v2 < 0 || v1 > 5 || v2 > 5 {
			return true
		}
		lo, hi := v1, v2
		if lo > hi {
			lo, hi = hi, lo
		}
		cLo := tech.N.JunctionCap(j, lo)
		cHi := tech.N.JunctionCap(j, hi)
		return cLo > 0 && cHi > 0 && cHi <= cLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// JunctionCapCharge's charge, with f^(1−m) taken as f/f^m, must agree to
// rounding with the closed form that calls Pow(f, 1−m) directly (relative to
// the charge scale C·1 V, since Q crosses zero at zero bias), across reverse
// bias, forward bias and the forward-bias clamp, for both polarities.
func TestJunctionCapChargeMatchesClosedForm(t *testing.T) {
	for _, p := range []*Params{&tech.N, &tech.P} {
		j := p.DefaultJunction(1.3e-6)
		for v := -3.0; v <= 5; v += 0.01 {
			c, q := p.JunctionCapCharge(j, v)
			vc := math.Max(v, -0.5*p.PB)
			f := 1 + vc/p.PB
			want := -p.CJ*j.Area*p.PB/(1-p.MJ)*(1-math.Pow(f, 1-p.MJ)) -
				p.CJSW*j.Perim*p.PB/(1-p.MJSW)*(1-math.Pow(f, 1-p.MJSW)) +
				(v-vc)*c
			if math.Abs(q-want) > 1e-12*(math.Abs(want)+c) {
				t.Fatalf("%v: Q(%g) = %g, want %g", p.Pol, v, q, want)
			}
		}
	}
}
