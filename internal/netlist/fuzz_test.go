package netlist

import (
	"strings"
	"testing"
)

// FuzzParseValue: the value parser must never panic and must round-trip
// what it accepts through FormatValue.
func FuzzParseValue(f *testing.F) {
	for _, seed := range []string{"1", "1.5k", "2meg", "15f", "-3.3", "0.35u", "1e-12", "abc", "", "k", "--5"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseValue(s)
		if err != nil {
			return
		}
		// Whatever parses must re-parse after formatting to a close value.
		v2, err := ParseValue(FormatValue(v))
		if err != nil {
			t.Fatalf("FormatValue(%g) = %q does not re-parse: %v", v, FormatValue(v), err)
		}
		diff := v - v2
		if diff < 0 {
			diff = -diff
		}
		mag := v
		if mag < 0 {
			mag = -mag
		}
		if diff > 1e-5*mag+1e-30 {
			t.Fatalf("round trip %q: %g -> %g", s, v, v2)
		}
	})
}

// FuzzParse: arbitrary decks must either parse or error — never panic — and
// whatever parses must survive a Format/Parse round trip. Every line of the
// deck, and the deck as one line, must also tokenize exactly as the
// rune-at-a-time reference tokenizer does.
func FuzzParse(f *testing.F) {
	f.Add(nandDeck)
	f.Add("t\nR1 a 0 1k\n.end\n")
	f.Add("t\nV1 a 0 PWL(0 0 1p 3.3)\nM1 b a 0 0 NMOS W=1u L=1u\n")
	f.Add("\n\n+ continuation without a card\n")
	f.Add("t\n.ic V(x)=1 V(y)=2\n.tran 1p 1n\n")
	f.Add("t\nR\xff1 a\xfe 0 1k\nC1 a\u00a0b\u2003 1f\n")
	f.Add("t\nV1 a 0 PWL((0 0) (1p 3.3))\nR1 a) (b 1k\n")
	f.Add("t\nm1 A b C 0 nMoS w=1U l=1U\n.\u0130c V(a)=1\n")
	f.Fuzz(func(t *testing.T, deck string) {
		checkSplitCard(t, deck)
		for _, line := range strings.Split(deck, "\n") {
			checkSplitCard(t, line)
		}
		d, err := ParseString(deck)
		if err != nil {
			return
		}
		text := Format(d)
		if _, err := ParseString(text); err != nil {
			// The circuit itself parsed; its serialization must too, unless
			// a node name contains characters our writer does not quote.
			for _, name := range d.Netlist.Nodes() {
				if strings.ContainsAny(name, " \t()=*+") {
					return
				}
			}
			for _, v := range d.Netlist.VSources {
				if strings.ContainsAny(v.Name, " \t()=*+") || !strings.HasPrefix(strings.ToLower(v.Name), "v") {
					return
				}
			}
			t.Fatalf("round trip failed: %v\n--- original:\n%s\n--- formatted:\n%s", err, deck, text)
		}
	})
}
