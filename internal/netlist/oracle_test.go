package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// refSplitCard is the rune-at-a-time tokenizer splitCard replaced, kept
// verbatim as the reference the substring tokenizer must match on every
// line, invalid UTF-8 included.
func refSplitCard(line string) []string {
	var out []string
	depth := 0
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range line {
		switch {
		case r == '(':
			depth++
			cur.WriteRune(r)
		case r == ')':
			depth--
			cur.WriteRune(r)
		case depth == 0 && refIsSep(r):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

func refIsSep(r rune) bool {
	if r > ' ' && r < utf8.RuneSelf {
		return r == ','
	}
	return unicode.IsSpace(r)
}

// checkSplitCard fails t when the tokenizer and the reference disagree on
// line, or when a token is not valid UTF-8.
func checkSplitCard(t *testing.T, line string) {
	t.Helper()
	got, want := splitCard(nil, line), refSplitCard(line)
	if !slices.Equal(got, want) {
		t.Fatalf("splitCard(%q) = %q, reference %q", line, got, want)
	}
	for _, tok := range got {
		if !utf8.ValidString(tok) {
			t.Fatalf("splitCard(%q): token %q is not valid UTF-8", line, tok)
		}
	}
}

// TestSplitCardMatchesReference runs the tokenizer against the reference
// on hand-picked lines and on seeded random lines drawn from an alphabet
// weighted toward the tokenizer's decisions: separators (ASCII, Unicode
// and the U+0085/U+00A0 Latin-1 spaces), parentheses, and invalid or
// truncated UTF-8.
func TestSplitCardMatchesReference(t *testing.T) {
	for _, line := range []string{
		"", " ", ",", "a", "M1 a b c 0 NMOS W=1u L=1u",
		"V1 a 0 PWL(0 0, 1p 3.3)", "PWL((0 0) (1p 3.3))", "a) b (c", "a (b ) ) c d",
		"R1 a b　1k", "x\u0085y", "a\xffb \xfe", "\xe2\x82 b", "\xe2\x82\xac,\xc3",
		"� \xef\xbf\xbd", "a\x0eb\x7fc", "((a b),c) d",
	} {
		checkSplitCard(t, line)
	}
	alphabet := []string{"a", "B", "0", "=", ".", " ", "\t", "\r", "\v", ",", "(", ")",
		" ", "\u0085", " ", "　", "ſ", "K", "\xff", "\xe2\x82", "\xc3", "�"}
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		b.Reset()
		for n := rng.Intn(16); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		checkSplitCard(t, b.String())
	}
}

// TestSplitCardReusesSlice pins the reuse contract: a second call writes
// into the first call's backing array.
func TestSplitCardReusesSlice(t *testing.T) {
	toks := splitCard(nil, "M1 a b c 0 NMOS W=1u L=1u")
	again := splitCard(toks, "R1 a b 1k")
	if &again[0] != &toks[0] || !slices.Equal(again, []string{"R1", "a", "b", "1k"}) {
		t.Fatalf("splitCard did not reuse its slice: %q", again)
	}
}

// deckSummary renders everything Parse produces, so two parses can be
// compared as text.
func deckSummary(d *Deck) string {
	var b strings.Builder
	fmt.Fprintf(&b, "title=%q tran=%g,%g\n", d.Title, d.TranStep, d.TranStop)
	for _, t := range d.Netlist.Transistors {
		fmt.Fprintf(&b, "M %q %v %q %q %q %q W=%g L=%g %+v %+v\n", t.Name, t.Kind,
			t.Drain, t.Gate, t.Source, t.Body, t.W, t.L, t.DrainJunc, t.SourceJunc)
	}
	for _, r := range d.Netlist.Resistors {
		fmt.Fprintf(&b, "R %q %q %q %g\n", r.Name, r.A, r.B, r.R)
	}
	for _, c := range d.Netlist.Capacitors {
		fmt.Fprintf(&b, "C %q %q %q %g\n", c.Name, c.A, c.B, c.C)
	}
	for _, v := range d.Netlist.VSources {
		fmt.Fprintf(&b, "V %q %q %q %v\n", v.Name, v.A, v.B, v.Wave)
	}
	var ic []string
	for k, v := range d.IC {
		ic = append(ic, fmt.Sprintf("%q=%g", k, v))
	}
	sort.Strings(ic)
	fmt.Fprintf(&b, "ic %s\n", strings.Join(ic, " "))
	return b.String()
}

// TestParseCaseFoldingPinned pins Parse's answer — deck or error text — on
// the inputs where a careless case fold would change it. The expectations
// are the rune-at-a-time parser's answers. strings.EqualFold would accept
// "NMOſ" and "aſ" (it folds ſ to s), and name[0]|0x20 would turn a 0x0E
// card letter into a '.' directive; Unicode lower-casing of directives
// stays, so ".İc" is an .ic card.
func TestParseCaseFoldingPinned(t *testing.T) {
	cases := []struct{ deck, want string }{
		{"t\nM1 a b c 0 NMOſ W=1u L=1u\n", `netlist: line 2: M1: unknown device type "NMOſ"`},
		{"t\nM1 a b c 0 NMOS W=1u L=1u aſ=1p\n", `netlist: line 2: M1: unknown parameter "aſ"`},
		{"t\nM1 a b c 0 KMOS W=1u L=1u\n", `netlist: line 2: M1: unknown device type "KMOS"`},
		{"t\nſ1 a 0 1k\n", `netlist: line 2: unsupported card "ſ1"`},
		{"t\n\x0e1 a 0 1k\n", `netlist: line 2: unsupported card "\x0e1"`},
		{"t\n.Keep\n", `netlist: line 2: unsupported directive ".keep"`},
		{"t\n.İc V(A)=1\n", "title=\"t\" tran=0,0\nic \"a\"=1\n"},
		{"t\nm1 A b C 0 nMoS w=1U l=0.5U Ad=1p pS=2u\n",
			"title=\"t\" tran=0,0\nM \"m1\" nmos \"a\" \"b\" \"c\" \"0\" W=1e-06 L=5e-07 {Area:1e-12 Perim:0} {Area:0 Perim:2e-06}\nic \n"},
		{"t\nR\xff1 a\xfe\xfd 0 1k\n", "title=\"t\" tran=0,0\nR \"R�1\" \"a��\" \"0\" 1000\nic \n"},
		{"t\nR1 a b　1k\n", "title=\"t\" tran=0,0\nR \"R1\" \"a\" \"b\" 1000\nic \n"},
		{"t\nV1 a 0 PWL((0 0) 1p 3.3)\n", `netlist: line 2: V1: bad number "(0"`},
		{"t\nV1 a 0 PWL(0 0,\n+ 1p 3.3)\nR1 a b 1\n", `netlist: line 3: V1: bad number "0,"`},
	}
	// The bufio.Scanner line limit stays: a card line over 64 KiB fails.
	cases = append(cases, struct{ deck, want string }{
		"t\nR1 a 0 1k " + strings.Repeat("x", 64<<10) + "\n", "bufio.Scanner: token too long"})
	for _, c := range cases {
		d, err := ParseString(c.deck)
		got := ""
		if err != nil {
			got = err.Error()
		} else {
			got = deckSummary(d)
		}
		if got != c.want {
			t.Errorf("ParseString(%q):\n got %q\nwant %q", c.deck, got, c.want)
		}
	}
}
