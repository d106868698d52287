package netlist_test

import (
	"testing"

	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/stages"
)

// TestParseAllocs is the parser's allocation gate on the 6-bit decoder
// deck (972 cards). The rune-at-a-time tokenizer spent 16 039 allocations
// here, a strings.Builder per token; with substring tokens the parse costs
// about two per card (its line and its device), measured at 1 973. The
// budget leaves 5 % headroom: a per-token allocation blows it at once.
func TestParseAllocs(t *testing.T) {
	nl, _, _, err := stages.DecoderNetlist(mos.CMOSP35(), 6, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	deck := netlist.Format(&netlist.Deck{Title: "* decoder6", Netlist: nl})
	const budget = 2070
	avg := testing.AllocsPerRun(5, func() {
		if _, err := netlist.ParseString(deck); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("parsing the decoder deck allocates %.0f/op, budget %d", avg, budget)
	}
}
