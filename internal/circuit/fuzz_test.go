package circuit_test

import (
	"reflect"
	"strings"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/netlist"
)

// FuzzExtractStages: every deck the parser accepts extracts identically
// with ExtractStages and the string-keyed reference; observed is a
// space-separated list of observed names.
func FuzzExtractStages(f *testing.F) {
	f.Add("t\nM1 x a 0 0 NMOS W=1u L=1u\nM2 x a vdd vdd PMOS W=2u L=1u\nM3 y x 0 0 NMOS W=1u L=1u\nR1 y z 10\nVa a 0 DC 1\n", "y z")
	f.Add("t\nM1 out in 0 0 N W=1u L=1u\nM2 OUT in Vdd 0 P W=1u L=1u\nR1 out w 5\nM3 gnd q vdd 0 N W=1u L=1u\n", "Out missing gnd")
	f.Add("t\nR1 a b 1\nR2 b c 1\nR3 d e 1\nM1 c e 0 0 N W=1u L=1u\nV1 d 0 1\nC1 c 0 1f\n", "")
	f.Fuzz(func(t *testing.T, deck, observed string) {
		d, err := netlist.ParseString(deck)
		if err != nil {
			return
		}
		obs := strings.Fields(observed)
		got := circuit.ExtractStages(d.Netlist, obs)
		if want := circuit.RefExtractStages(d.Netlist, obs); !reflect.DeepEqual(got, want) {
			t.Fatalf("ExtractStages differs from the reference on\n%s\nobserved %q", deck, obs)
		}
	})
}
