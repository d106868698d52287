// Package netlist parses a minimal SPICE-style deck into a circuit.Netlist
// plus analysis directives, so the command-line tools can consume the same
// input format a circuit designer would write:
//
//   - 2-input NAND pull-down
//     Vdd vdd 0 DC 3.3
//     Vin in 0 PWL(0 0 1p 3.3)
//     M1 x1 in 0 0 NMOS W=1u L=0.35u
//     M2 out vdd x1 0 NMOS W=1u L=0.35u
//     C1 out 0 15f
//     .ic V(out)=3.3 V(x1)=3.3
//     .tran 1p 2n
//     .end
//
// Supported cards: M (MOSFET), R, C, V (DC / PWL), .tran, .ic, .end, and
// '*' comments. Units accept the usual SPICE suffixes (f p n u m k meg g).
package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"qwm/internal/circuit"
	"qwm/internal/wave"
)

// Deck is a parsed netlist plus its analysis directives.
type Deck struct {
	Title   string
	Netlist *circuit.Netlist
	// TranStep and TranStop come from .tran; zero when absent.
	TranStep, TranStop float64
	// IC maps node names to initial voltages from .ic.
	IC map[string]float64
}

// Parse reads a deck from r.
//
// The per-card cost is one string per card line: tokens are substrings of
// that line (so the Deck's names pin their card's text, never the whole
// input), and one token slice is reused across cards.
func Parse(r io.Reader) (*Deck, error) {
	d := &Deck{Netlist: &circuit.Netlist{}, IC: map[string]float64{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	first := true
	var prev string
	var toks []string
	flush := func(line string, no int) error {
		if line == "" {
			return nil
		}
		toks = splitCard(toks, line)
		return d.card(toks, no)
	}
	for sc.Scan() {
		lineNo++
		trimmed := bytes.TrimSpace(sc.Bytes())
		if first {
			// SPICE convention: the first line is always the title.
			d.Title = string(trimmed)
			first = false
			continue
		}
		if len(trimmed) == 0 || trimmed[0] == '*' {
			continue
		}
		// '+' continuation lines extend the previous card.
		if trimmed[0] == '+' {
			prev += " " + string(bytes.TrimSpace(trimmed[1:]))
			continue
		}
		if err := flush(prev, lineNo-1); err != nil {
			return nil, err
		}
		prev = string(trimmed)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(prev, lineNo); err != nil {
		return nil, err
	}
	if err := d.Netlist.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseString parses a deck held in a string.
func ParseString(s string) (*Deck, error) { return Parse(strings.NewReader(s)) }

func (d *Deck) card(fields []string, no int) error {
	if len(fields) == 0 {
		return nil
	}
	name := fields[0]
	var err error
	switch lowerASCII(name[0]) {
	case 'm':
		err = d.mosCard(name, fields[1:])
	case 'r':
		err = d.resCard(name, fields[1:])
	case 'c':
		err = d.capCard(name, fields[1:])
	case 'v':
		err = d.vCard(name, fields[1:])
	case '.':
		// Unicode lower-casing on purpose: it makes ".İc" an .ic card.
		err = d.dotCard(strings.ToLower(name), fields[1:])
	default:
		err = fmt.Errorf("unsupported card %q", name)
	}
	if err != nil {
		return fmt.Errorf("netlist: line %d: %w", no, err)
	}
	return nil
}

// splitCard tokenizes a card into dst[:0] at whitespace and commas, keeping
// parenthesized groups (PWL lists) together as single tokens, separators
// and all. Every Unicode space separates, so a stray carriage return cannot
// become part of a node name that the writer could not reproduce. Tokens
// are substrings of line; a token holding invalid UTF-8 is rebuilt with one
// U+FFFD per invalid byte, so names are always valid UTF-8.
func splitCard(dst []string, line string) []string {
	out := dst[:0]
	depth, start, bad := 0, -1, false
	for i := 0; i < len(line); {
		c, w, sep := line[i], 1, false
		if c < utf8.RuneSelf {
			switch c {
			case '(':
				depth++
			case ')':
				depth--
			default:
				sep = depth == 0 && asciiSep[c]
			}
		} else {
			var r rune
			r, w = utf8.DecodeRuneInString(line[i:])
			if r == utf8.RuneError && w == 1 {
				bad = true
			} else {
				sep = depth == 0 && unicode.IsSpace(r)
			}
		}
		switch {
		case sep && start >= 0:
			out = append(out, token(line[start:i], bad))
			start, bad = -1, false
		case !sep && start < 0:
			start = i
		}
		i += w
	}
	if start >= 0 {
		out = append(out, token(line[start:], bad))
	}
	return out
}

// asciiSep marks the ASCII card separators: the comma and the ASCII spaces
// of unicode.IsSpace.
var asciiSep = [utf8.RuneSelf]bool{',': true, ' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// token returns tok, or, when it holds invalid UTF-8, a copy with each
// invalid byte replaced by U+FFFD (what ranging over it yields).
func token(tok string, bad bool) string {
	if !bad {
		return tok
	}
	var b strings.Builder
	for _, r := range tok {
		b.WriteRune(r)
	}
	return b.String()
}

// lowerASCII folds an ASCII upper-case letter and leaves every other byte
// alone. Card letters, device types and parameter keys fold this way: no
// non-ASCII rune lower-cases to one of their letters, so the result matches
// strings.ToLower without allocating.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// equalFoldASCII reports whether s equals the lower-case ASCII word lower
// under ASCII-only case folding. Unlike strings.EqualFold it does not fold
// 'ſ' to 's' or the Kelvin sign to 'k'.
func equalFoldASCII(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if lowerASCII(s[i]) != lower[i] {
			return false
		}
	}
	return true
}

func (d *Deck) mosCard(name string, f []string) error {
	if len(f) < 5 {
		return fmt.Errorf("%s: MOSFET needs d g s b type", name)
	}
	kind := circuit.KindNMOS
	switch typ := f[4]; {
	case equalFoldASCII(typ, "nmos"), equalFoldASCII(typ, "n"):
		kind = circuit.KindNMOS
	case equalFoldASCII(typ, "pmos"), equalFoldASCII(typ, "p"):
		kind = circuit.KindPMOS
	default:
		return fmt.Errorf("%s: unknown device type %q", name, f[4])
	}
	t := &circuit.Transistor{
		Name: name, Kind: kind,
		Drain: f[0], Gate: f[1], Source: f[2], Body: f[3],
	}
	for _, kv := range f[5:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("%s: expected key=value, got %q", name, kv)
		}
		x, err := ParseValue(val)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		switch {
		case equalFoldASCII(key, "w"):
			t.W = x
		case equalFoldASCII(key, "l"):
			t.L = x
		case equalFoldASCII(key, "ad"):
			t.DrainJunc.Area = x
		case equalFoldASCII(key, "pd"):
			t.DrainJunc.Perim = x
		case equalFoldASCII(key, "as"):
			t.SourceJunc.Area = x
		case equalFoldASCII(key, "ps"):
			t.SourceJunc.Perim = x
		default:
			return fmt.Errorf("%s: unknown parameter %q", name, key)
		}
	}
	if t.W == 0 || t.L == 0 {
		return fmt.Errorf("%s: W and L are required", name)
	}
	d.Netlist.AddTransistor(t)
	return nil
}

func (d *Deck) resCard(name string, f []string) error {
	if len(f) != 3 {
		return fmt.Errorf("%s: resistor needs two nodes and a value", name)
	}
	v, err := ParseValue(f[2])
	if err != nil {
		return err
	}
	d.Netlist.AddResistor(name, f[0], f[1], v)
	return nil
}

func (d *Deck) capCard(name string, f []string) error {
	if len(f) != 3 {
		return fmt.Errorf("%s: capacitor needs two nodes and a value", name)
	}
	v, err := ParseValue(f[2])
	if err != nil {
		return err
	}
	d.Netlist.AddCapacitor(name, f[0], f[1], v)
	return nil
}

func (d *Deck) vCard(name string, f []string) error {
	if len(f) < 3 {
		return fmt.Errorf("%s: source needs two nodes and a value", name)
	}
	spec := strings.Join(f[2:], " ")
	w, err := parseSourceSpec(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	d.Netlist.AddVSource(name, f[0], f[1], w)
	return nil
}

func parseSourceSpec(spec string) (wave.Waveform, error) {
	s := strings.TrimSpace(spec)
	low := strings.ToLower(s)
	switch {
	case strings.HasPrefix(low, "dc"):
		v, err := ParseValue(strings.TrimSpace(s[2:]))
		if err != nil {
			return nil, err
		}
		return wave.DC(v), nil
	case strings.HasPrefix(low, "pwl"):
		inner := strings.TrimSpace(s[3:])
		inner = strings.TrimPrefix(inner, "(")
		inner = strings.TrimSuffix(inner, ")")
		parts := strings.Fields(inner)
		if len(parts) == 0 || len(parts)%2 != 0 {
			return nil, fmt.Errorf("PWL needs an even number of values")
		}
		var ts, vs []float64
		for i := 0; i < len(parts); i += 2 {
			t, err := ParseValue(parts[i])
			if err != nil {
				return nil, err
			}
			v, err := ParseValue(parts[i+1])
			if err != nil {
				return nil, err
			}
			ts = append(ts, t)
			vs = append(vs, v)
		}
		return wave.NewPWL(ts, vs)
	default:
		// A bare number is a DC value.
		v, err := ParseValue(s)
		if err != nil {
			return nil, fmt.Errorf("unsupported source spec %q", spec)
		}
		return wave.DC(v), nil
	}
}

func (d *Deck) dotCard(name string, f []string) error {
	switch name {
	case ".tran":
		if len(f) < 2 {
			return fmt.Errorf(".tran needs step and stop")
		}
		step, err := ParseValue(f[0])
		if err != nil {
			return err
		}
		stop, err := ParseValue(f[1])
		if err != nil {
			return err
		}
		d.TranStep, d.TranStop = step, stop
		return nil
	case ".ic":
		for _, kv := range f {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf(".ic expects V(node)=value, got %q", kv)
			}
			key = strings.ToLower(strings.TrimSpace(key))
			if !strings.HasPrefix(key, "v(") || !strings.HasSuffix(key, ")") {
				return fmt.Errorf(".ic expects V(node)=value, got %q", kv)
			}
			node := circuit.CanonName(key[2 : len(key)-1])
			v, err := ParseValue(val)
			if err != nil {
				return err
			}
			d.IC[node] = v
		}
		return nil
	case ".end":
		return nil
	case ".option", ".options", ".model":
		// Accepted and ignored: the technology is built in.
		return nil
	default:
		return fmt.Errorf("unsupported directive %q", name)
	}
}

// ParseValue parses a SPICE number with an optional scale suffix.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	scale := 1.0
	switch {
	case strings.HasSuffix(s, "meg"):
		scale, s = 1e6, s[:len(s)-3]
	case strings.HasSuffix(s, "mil"):
		scale, s = 25.4e-6, s[:len(s)-3]
	default:
		if n := len(s); n > 1 {
			switch s[n-1] {
			case 'f':
				scale, s = 1e-15, s[:n-1]
			case 'p':
				scale, s = 1e-12, s[:n-1]
			case 'n':
				scale, s = 1e-9, s[:n-1]
			case 'u':
				scale, s = 1e-6, s[:n-1]
			case 'm':
				scale, s = 1e-3, s[:n-1]
			case 'k':
				scale, s = 1e3, s[:n-1]
			case 'g':
				scale, s = 1e9, s[:n-1]
			case 't':
				scale, s = 1e12, s[:n-1]
			}
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v * scale, nil
}
