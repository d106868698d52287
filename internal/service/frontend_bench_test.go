package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"qwm/internal/api/v1"
	"qwm/internal/circuit"
	"qwm/internal/netlist"
	"qwm/internal/stages"
)

// frontEndDeck is one benchmark deck: its request body and deck text.
type frontEndDeck struct {
	name string
	deck string
	outs []string
	body []byte
}

// frontEndDecks returns the two front-end benchmark decks: the 6-bit
// decoder (many small stages) and the 16-branch, 24-segment RC fan-out
// (long resistor chains), as POST /analyze bodies.
func frontEndDecks(tb testing.TB) []frontEndDeck {
	tb.Helper()
	dec, decIns, decOuts, err := stages.DecoderNetlist(tech, 6, 1e-6, 10e-15)
	if err != nil {
		tb.Fatal(err)
	}
	wide, wideIns, wideOuts, err := stages.WideNetlist(tech, 16, 24, 1e-6, 10e-15)
	if err != nil {
		tb.Fatal(err)
	}
	var out []frontEndDeck
	for _, d := range []struct {
		name      string
		nl        *circuit.Netlist
		ins, outs []string
	}{{"decoder6", dec, decIns, decOuts}, {"wide16x24", wide, wideIns, wideOuts}} {
		text := netlist.Format(&netlist.Deck{Title: "* " + d.name, Netlist: d.nl})
		inputs := map[string]v1.Arrival{}
		for _, in := range d.ins {
			inputs[in] = v1.Arrival{RiseSlew: 20e-12, FallSlew: 20e-12}
		}
		body, err := json.Marshal(v1.AnalyzeRequest{
			SchemaVersion: v1.SchemaVersion, ID: d.name,
			Netlist: text, Inputs: inputs, Outputs: d.outs,
		})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, frontEndDeck{name: d.name, deck: text, outs: d.outs, body: body})
	}
	return out
}

// BenchmarkFrontEnd times the request front-end layers the service runs
// before its first cache probe, one sub-benchmark per layer and deck:
// decode (the POST /analyze body), parse (the deck text) and extract (stage
// extraction). Pre-flight validation lives in internal/sta's
// BenchmarkFrontEnd. Run with -benchmem: allocations are the point.
func BenchmarkFrontEnd(b *testing.B) {
	decks := frontEndDecks(b)
	for _, d := range decks {
		b.Run("decode/"+d.name, func(b *testing.B) {
			b.SetBytes(int64(len(d.body)))
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeEnvelope(d.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, d := range decks {
		b.Run("parse/"+d.name, func(b *testing.B) {
			b.SetBytes(int64(len(d.deck)))
			for i := 0; i < b.N; i++ {
				if _, err := netlist.ParseString(d.deck); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, d := range decks {
		b.Run("extract/"+d.name, func(b *testing.B) {
			deck, err := netlist.ParseString(d.deck)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(circuit.ExtractStages(deck.Netlist, d.outs)) == 0 {
					b.Fatal("no stages")
				}
			}
		})
	}
}

// BenchmarkServiceWarm is the steady-state request benchmark: one server,
// warmed over the front-end decks, then one in-process POST /analyze per
// op, cycling the decks. Every cache probe hits, so an op costs the
// service front end, the cache-hit probes and the encode.
func BenchmarkServiceWarm(b *testing.B) {
	decks := frontEndDecks(b)
	s := New(tech, lib, Options{})
	defer s.Close()
	h := s.Handler()
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, d := range decks {
		post(d.body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(decks[i%len(decks)].body)
	}
}
