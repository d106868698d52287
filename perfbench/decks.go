package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"qwm/internal/api/v1"
	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/stages"
)

// request is one generated POST /analyze body. The server only ever sees
// Body; the other fields are what the generator and the output checks need.
type request struct {
	ID      string
	Deck    string // netlist text inside Body
	Outputs []string
	Body    []byte
}

// deckParams fully determines one generated deck. Widths, loads and slews
// are integers in fixed units so the generator's output is byte-stable.
type deckParams struct {
	decoder   bool
	bits      int // decoder address bits
	fan, segs int // wide: branches and RC segments per branch
	wNM       int // transistor unit width, nm
	clAF      int // output load, aF
	slewFS    int // primary-input transition, fs
	memo      bool
	reduce    bool
}

func (p deckParams) key() string { return fmt.Sprintf("%+v", p) }

// reduceTolPct is the RC-reduction tolerance cold_fresh requests ask for when
// they carry features.
const reduceTolPct = 2

// newRand derives an independent stream for one use of the workload seed.
func newRand(seed int64, use string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", use, seed)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// build renders params to a request. The deck is either a row decoder
// (stages.DecoderNetlist) or an inverter fan-out driving long RC wires
// (stages.WideNetlist).
func (p deckParams) build(tech *mos.Tech, id string) (request, error) {
	w, cl := float64(p.wNM)*1e-9, float64(p.clAF)*1e-18
	var (
		nl       *circuit.Netlist
		ins, out []string
		err      error
		title    string
	)
	if p.decoder {
		nl, ins, out, err = stages.DecoderNetlist(tech, p.bits, w, cl)
		title = fmt.Sprintf("* perfbench decoder bits=%d", p.bits)
	} else {
		nl, ins, out, err = stages.WideNetlist(tech, p.fan, p.segs, w, cl)
		title = fmt.Sprintf("* perfbench wide fan=%d segs=%d", p.fan, p.segs)
	}
	if err != nil {
		return request{}, err
	}
	deck := netlist.Format(&netlist.Deck{Title: title, Netlist: nl})
	slew := float64(p.slewFS) * 1e-15
	inputs := make(map[string]v1.Arrival, len(ins))
	for _, in := range ins {
		inputs[in] = v1.Arrival{RiseSlew: slew, FallSlew: slew}
	}
	req := v1.AnalyzeRequest{
		SchemaVersion: v1.SchemaVersion,
		ID:            id,
		Netlist:       deck,
		Inputs:        inputs,
		Outputs:       out,
	}
	if p.memo || p.reduce {
		req.Features = &v1.Features{Memo: p.memo}
		if p.reduce {
			req.Features.ReduceTolPct = reduceTolPct
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return request{}, err
	}
	return request{ID: id, Deck: deck, Outputs: out, Body: body}, nil
}

// warmShapes is the fixed structure of the warm_repeat pool: decoders of
// 4–6 address bits and RC fan-outs. The seed picks only widths, loads and
// slews, so every seed's pool costs about the same to serve.
var warmShapes = []deckParams{
	{decoder: true, bits: 4}, {decoder: true, bits: 4},
	{decoder: true, bits: 5}, {decoder: true, bits: 5},
	{decoder: true, bits: 6}, {decoder: true, bits: 6},
	{fan: 4, segs: 8}, {fan: 8, segs: 12}, {fan: 8, segs: 16},
	{fan: 12, segs: 16}, {fan: 16, segs: 16}, {fan: 16, segs: 24},
}

// warmPool generates the warm_repeat pool. Its widths are whole multiples of
// 50 nm and its loads whole femtofarads; cold_fresh draws neither, so no
// pool deck can appear in a cold_fresh stream. No two pool decks share a
// width, so no two share delay-cache entries and the pool's cache
// footprint does not depend on the seed.
func warmPool(tech *mos.Tech, seed int64) ([]request, error) {
	rng := newRand(seed, "warm-pool")
	widths := rng.Perm(18)
	pool := make([]request, len(warmShapes))
	for i, p := range warmShapes {
		p.wNM = 50 * (22 + widths[i])        // 1.10–1.95 µm
		p.clAF = 1000 * (11 + rng.Intn(9))   // 11–19 fF
		p.slewFS = 10000 * (1 + rng.Intn(4)) // 10–40 ps
		r, err := p.build(tech, fmt.Sprintf("w%d", i))
		if err != nil {
			return nil, err
		}
		pool[i] = r
	}
	return pool, nil
}

// coldShapes is one cycle of the cold_fresh stream's structures: as many
// decoders (3–4 address bits) as RC fan-outs, each once with features
// {memo, reduce_tol_pct} and once without. The stream deals the cycle in
// seeded order, so every seed serves the same mix.
var coldShapes = func() []deckParams {
	base := []deckParams{
		{decoder: true, bits: 3}, {decoder: true, bits: 3},
		{decoder: true, bits: 3}, {decoder: true, bits: 3},
		{decoder: true, bits: 4}, {decoder: true, bits: 4},
		{decoder: true, bits: 4}, {decoder: true, bits: 4},
		{fan: 2, segs: 4}, {fan: 3, segs: 8}, {fan: 4, segs: 6}, {fan: 4, segs: 12},
		{fan: 5, segs: 10}, {fan: 6, segs: 8}, {fan: 8, segs: 4}, {fan: 8, segs: 12},
	}
	out := append([]deckParams(nil), base...)
	for _, p := range base {
		p.memo, p.reduce = true, true
		out = append(out, p)
	}
	return out
}()

// coldGen generates the cold_fresh stream: every request is a deck no
// earlier request of the stream (and no warm_repeat pool) carries. Widths
// and loads are drawn at 1 nm and 1 aF resolution, never a multiple of 10,
// so each prints with a fixed number of digits and none lies on the warm
// pool's grid.
type coldGen struct {
	tech  *mos.Tech
	rng   *rand.Rand
	seen  map[string]bool
	cycle []int
	n     int
}

func newColdGen(tech *mos.Tech, seed int64) *coldGen {
	return &coldGen{tech: tech, rng: newRand(seed, "cold-stream"), seen: map[string]bool{}}
}

func (g *coldGen) params() deckParams {
	r := g.rng
	if len(g.cycle) == 0 {
		g.cycle = r.Perm(len(coldShapes))
	}
	p := coldShapes[g.cycle[0]]
	g.cycle = g.cycle[1:]
	for {
		p.wNM = 1101 + r.Intn(799)        // 1.1–1.9 µm
		p.clAF = 11001 + r.Intn(7999)     // 11–19 fF
		p.slewFS = 5000 + 100*r.Intn(551) // 5–60 ps
		if p.wNM%10 != 0 && p.clAF%10 != 0 && !g.seen[p.key()] {
			g.seen[p.key()] = true
			return p
		}
	}
}

func (g *coldGen) next() (request, error) {
	p := g.params()
	r, err := p.build(g.tech, fmt.Sprintf("c%d", g.n))
	g.n++
	return r, err
}
