package sta

import (
	"errors"
	"math"
	"strings"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/stages"
)

// analyzeExpectInvalid runs an Analyze and asserts the typed pre-flight
// rejection: the error must wrap ErrInvalidNetlist and mention `frag`.
func analyzeExpectInvalid(t *testing.T, nl *circuit.Netlist, frag string) {
	t.Helper()
	_, err := New(tech, lib).Analyze(nl, map[string]Arrival{"in0": {}}, []string{"out"})
	if err == nil {
		t.Fatalf("malformed netlist (%s) accepted", frag)
	}
	if !errors.Is(err, ErrInvalidNetlist) {
		t.Fatalf("error %v does not wrap ErrInvalidNetlist", err)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Errorf("error %q does not mention %q", err, frag)
	}
}

func TestPreflightNilNetlist(t *testing.T) {
	_, err := New(tech, lib).AnalyzeContext(nil, Request{Outputs: []string{"out"}})
	if !errors.Is(err, ErrInvalidNetlist) {
		t.Fatalf("nil netlist error = %v, want ErrInvalidNetlist", err)
	}
}

func TestPreflightDuplicateNames(t *testing.T) {
	nl := inverterChain(1, 1e-6, 2e-6)
	// A resistor reusing a transistor's name across device kinds.
	nl.AddResistor("mn0", "out", "x", 100)
	analyzeExpectInvalid(t, nl, `duplicate device name "mn0"`)
}

func TestPreflightNonFiniteParameters(t *testing.T) {
	cases := []struct {
		name string
		mut  func(nl *circuit.Netlist)
	}{
		{"NaN transistor width", func(nl *circuit.Netlist) {
			nl.AddTransistor(&circuit.Transistor{Name: "mx", Kind: circuit.KindNMOS,
				Drain: "out", Gate: "in0", Source: "0", Body: "0", W: math.NaN(), L: tech.LMin})
		}},
		{"Inf resistance", func(nl *circuit.Netlist) {
			nl.AddResistor("rx", "out", "n1", math.Inf(1))
		}},
		{"NaN capacitance", func(nl *circuit.Netlist) {
			nl.AddCapacitor("cx", "out", "0", math.NaN())
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nl := inverterChain(2, 1e-6, 2e-6)
			c.mut(nl)
			analyzeExpectInvalid(t, nl, "non-finite")
		})
	}
}

func TestPreflightFloatingCapTerminal(t *testing.T) {
	nl := inverterChain(1, 1e-6, 2e-6)
	// "ghost" is touched by nothing but this capacitor: load on a node that
	// can never move, i.e. a typo in the node name.
	nl.AddCapacitor("cx", "ghost", "0", 1e-15)
	analyzeExpectInvalid(t, nl, "floating")

	// Two caps in series between dead nets are just as floating — the touch
	// count must not treat a sibling capacitor as a driver.
	nl2 := inverterChain(1, 1e-6, 2e-6)
	nl2.AddCapacitor("ca", "ghost1", "ghost2", 1e-15)
	nl2.AddCapacitor("cb", "ghost2", "0", 1e-15)
	analyzeExpectInvalid(t, nl2, "floating")
}

func TestPreflightRailCapsAllowed(t *testing.T) {
	// Decoupling caps to the rails are legitimate and must pass.
	nl := inverterChain(1, 1e-6, 2e-6)
	nl.AddCapacitor("cdec", "vdd", "0", 1e-12)
	if _, err := New(tech, lib).Analyze(nl, map[string]Arrival{"in0": {}}, []string{"out"}); err != nil {
		t.Fatalf("rail decoupling cap rejected: %v", err)
	}
}

func TestCombinationalLoopIsInvalidNetlist(t *testing.T) {
	// Two cross-coupled inverters: each stage's input is the other's output,
	// so levelization finds no valid order. The failure must carry the same
	// typed sentinel as the rest of the pre-flight family.
	nl := &circuit.Netlist{}
	mk := func(i int, in, out string) {
		nl.AddTransistor(&circuit.Transistor{Name: "mn" + string(rune('0'+i)), Kind: circuit.KindNMOS,
			Drain: out, Gate: in, Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
		nl.AddTransistor(&circuit.Transistor{Name: "mp" + string(rune('0'+i)), Kind: circuit.KindPMOS,
			Drain: out, Gate: in, Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	}
	mk(0, "a", "b")
	mk(1, "b", "a")
	nl.AddCapacitor("cl", "b", "0", 5e-15)
	_, err := New(tech, lib).Analyze(nl, nil, []string{"b"})
	if err == nil {
		t.Fatal("combinational loop accepted")
	}
	if !errors.Is(err, ErrInvalidNetlist) {
		t.Fatalf("loop error %v does not wrap ErrInvalidNetlist", err)
	}
}

func TestPreflightAcceptsHealthyNetlist(t *testing.T) {
	if err := preflight(inverterChain(4, 1e-6, 2e-6)); err != nil {
		t.Fatalf("healthy netlist rejected: %v", err)
	}
}

// BenchmarkFrontEnd/preflight times pre-flight validation on the two
// front-end benchmark decks (internal/service's BenchmarkFrontEnd times
// decode, parse and extract on the same decks).
func BenchmarkFrontEnd(b *testing.B) {
	dec, _, _, err := stages.DecoderNetlist(tech, 6, 1e-6, 10e-15)
	if err != nil {
		b.Fatal(err)
	}
	wide, _, _, err := stages.WideNetlist(tech, 16, 24, 1e-6, 10e-15)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []struct {
		name string
		nl   *circuit.Netlist
	}{{"decoder6", dec}, {"wide16x24", wide}} {
		b.Run("preflight/"+d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := preflight(d.nl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
