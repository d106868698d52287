package qwm

import (
	"fmt"
	"math"
	"testing"

	"qwm/internal/stages"
	"qwm/internal/wave"
)

// paperChains builds the chains of the paper's Table I gates (inverter,
// NAND2–4) and Table II random stacks (K = 5…10, three sizings each).
func paperChains(t testing.TB) map[string]*Chain {
	ws := map[string]*stages.Workload{}
	inv, err := stages.Inverter(tech, 0.8e-6, 1.6e-6, 15e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws["inv"] = inv
	for n := 2; n <= 4; n++ {
		g, err := stages.NAND(tech, n, 0.8e-6, 1.6e-6, 15e-15, 0)
		if err != nil {
			t.Fatal(err)
		}
		ws[fmt.Sprintf("nand%d", n)] = g
	}
	for k := 5; k <= 10; k++ {
		for cfg := 0; cfg < 3; cfg++ {
			w, err := stages.RandomStack(tech, k, int64(k*10+cfg))
			if err != nil {
				t.Fatal(err)
			}
			ws[fmt.Sprintf("stack%d/ckt%d", k, cfg+1)] = w
		}
	}
	chains := map[string]*Chain{}
	for name, w := range ws {
		ch, err := Build(BuildInput{
			Tech: tech, Lib: testLib,
			Stage: w.Stage, Path: w.Path,
			Inputs: w.Inputs, Loads: w.Loads, V0: w.IC,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		chains[name] = ch
	}
	return chains
}

// diffResults reports the first difference between two results, comparing
// every float by its bits. Stats.DenseFallbacks is ignored: it counts the
// route the linear solves took, not what they computed.
func diffResults(a, b *Result) error {
	sa, sb := a.Stats, b.Stats
	sa.DenseFallbacks, sb.DenseFallbacks = 0, 0
	if sa != sb || a.DeviceEvals != b.DeviceEvals || a.TailTruncated != b.TailTruncated {
		return fmt.Errorf("accounting differs: %+v/%d/%v vs %+v/%d/%v",
			sa, a.DeviceEvals, a.TailTruncated, sb, b.DeviceEvals, b.TailTruncated)
	}
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !same(a.CriticalTimes, b.CriticalTimes) {
		return fmt.Errorf("critical times differ: %v vs %v", a.CriticalTimes, b.CriticalTimes)
	}
	flat := func(p *wave.PWQ) []float64 {
		var out []float64
		for _, sg := range p.Segs {
			out = append(out, sg.T0, sg.T1, sg.V0, sg.S, sg.A)
		}
		return out
	}
	for n := range a.Folded {
		if !same(flat(a.Folded[n]), flat(b.Folded[n])) || !same(flat(a.Nodes[n]), flat(b.Nodes[n])) {
			return fmt.Errorf("node %d waveforms differ", n+1)
		}
	}
	return nil
}

// TestCompiledJunctionsMatchNodeCap checks the engine's grouped junction
// evaluation against the chain's own NodeCap: one group per node and device
// Params must give At and Secant to rounding, at any voltage and excursion.
func TestCompiledJunctionsMatchNodeCap(t *testing.T) {
	merged := false
	for name, ch := range paperChains(t) {
		e, err := newEngine(ch, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		junctions := 0
		for _, nc := range ch.Caps {
			junctions += len(nc.Junctions)
		}
		if len(e.scr.jg) < junctions {
			merged = true
		}
		for k := 1; k <= e.m; k++ {
			nc := &ch.Caps[k-1]
			for _, v := range []float64{0, 0.4, 1.1, 2.5, ch.VDD} {
				e.v[k] = v
				if got, want := e.startCap(k), nc.At(v, ch.VDD, ch.Pol); math.Abs(got-want) > 1e-12*want {
					t.Errorf("%s node %d: C(%g) = %g, NodeCap.At %g", name, k, v, got, want)
				}
				for _, v2 := range []float64{v - 0.3, v - 1e-3, v + 1e-7, v + 0.2} {
					got, want := e.secantCap(k, v2), nc.Secant(v, v2, ch.VDD, ch.Pol)
					if math.Abs(got-want) > 1e-9*want {
						t.Errorf("%s node %d: secant(%g, %g) = %g, NodeCap.Secant %g", name, k, v, v2, got, want)
					}
				}
			}
		}
		e.release()
	}
	if !merged {
		t.Error("no chain had two junctions on one Params to group")
	}
}
