package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"qwm/internal/api/v1"
	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/obs"
	"qwm/internal/reduce"
	"qwm/internal/sta"
)

// engine answers POST /analyze bodies in-process through the same public
// layer functions, in the same order, as service.Server: JSON decode, deck
// parse, analyzer selection by result signature, sta.AnalyzeContext, and
// v1 encoding. It is both the cold_fresh referee and the traced replay.
// Like the service pool, it gives every analyzer one shared metrics
// registry, so requests take the same metric-recording path.
type engine struct {
	tech      *mos.Tech
	lib       *devmodel.Library
	metrics   *obs.Registry
	analyzers map[string]*sta.Analyzer
}

func newEngine() *engine {
	tech := mos.CMOSP35()
	return &engine{
		tech: tech, lib: devmodel.NewLibrary(tech),
		metrics:   obs.NewRegistry(),
		analyzers: map[string]*sta.Analyzer{},
	}
}

// configFor maps a request to its analyzer configuration as the service
// does; analyzer adds the metrics registry the pool adds.
func configFor(req v1.AnalyzeRequest) sta.Config {
	var cfg sta.Config
	if f := req.Features; f != nil {
		if f.ReduceTolPct > 0 {
			cfg.Reduction = reduce.Config{Enabled: true, TolPct: f.ReduceTolPct}
		}
		cfg.Memo = sta.MemoConfig{Enabled: f.Memo || f.Interp, Interp: f.Interp}
	}
	if b := req.Budget; b != nil {
		cfg.Budget = b.STA()
	}
	return cfg
}

func (e *engine) analyzer(cfg sta.Config) *sta.Analyzer {
	sig := cfg.Signature()
	a, ok := e.analyzers[sig]
	if !ok {
		cfg.Metrics = e.metrics
		a = sta.New(e.tech, e.lib, cfg)
		e.analyzers[sig] = a
	}
	return a
}

// cacheEntries sums the delay-cache entries over every analyzer.
func (e *engine) cacheEntries() int {
	n := 0
	for _, a := range e.analyzers {
		n += a.CacheStats().Entries
	}
	return n
}

// layerHooks, when set, is called around each layer of one request; the
// traced replay uses it to record spans. observer is attached to the
// sta.Request.
type layerHooks struct {
	begin    func(layer string)
	end      func(layer string)
	observer obs.Observer
}

func (h *layerHooks) span(layer string, f func()) {
	if h == nil {
		f()
		return
	}
	h.begin(layer)
	f()
	h.end(layer)
}

// answer serves one request body, encoding the response as the service
// does.
func (e *engine) answer(body []byte, h *layerHooks) (v1.AnalyzeResponse, error) {
	var (
		req v1.AnalyzeRequest
		err error
	)
	h.span("v1.decode", func() {
		// The service decodes twice: a probe for the batch key, then the
		// request itself.
		var probe struct {
			Requests []json.RawMessage `json:"requests"`
		}
		if err = json.Unmarshal(body, &probe); err == nil {
			err = json.Unmarshal(body, &req)
		}
	})
	if err != nil {
		return v1.AnalyzeResponse{}, fmt.Errorf("decode: %w", err)
	}
	if err := v1.Validate(req.SchemaVersion); err != nil {
		return v1.AnalyzeResponse{}, err
	}
	if strings.TrimSpace(req.Netlist) == "" || len(req.Outputs) == 0 {
		return v1.AnalyzeResponse{}, errors.New("empty netlist or no outputs")
	}
	var deck *netlist.Deck
	h.span("netlist.parse", func() { deck, err = netlist.ParseString(req.Netlist) })
	if err != nil {
		return v1.AnalyzeResponse{}, fmt.Errorf("parse: %w", err)
	}
	a := e.analyzer(configFor(req))
	primary := make(map[string]sta.Arrival, len(req.Inputs))
	for net, ar := range req.Inputs {
		primary[net] = ar.STA()
	}
	outputs := make([]string, len(req.Outputs))
	for i, o := range req.Outputs {
		outputs[i] = circuit.CanonName(o)
	}
	var res *sta.Result
	sreq := sta.Request{Netlist: deck.Netlist, Primary: primary, Outputs: outputs}
	if h != nil {
		sreq.Observer = h.observer
	}
	h.span("sta.analyze", func() { res, err = a.AnalyzeContext(context.Background(), sreq) })
	if err != nil {
		return v1.AnalyzeResponse{}, fmt.Errorf("analyze: %w", err)
	}
	if h != nil {
		// The service reaches stage extraction only inside AnalyzeContext;
		// it is timed here, in a pass of its own.
		h.span("circuit.extract", func() { circuit.ExtractStages(deck.Netlist, outputs) })
	}
	var resp v1.AnalyzeResponse
	h.span("v1.encode", func() {
		resp = v1.OKResponse(req.ID, v1.FromResult(res, outputs, req.FullArrivals))
		err = json.NewEncoder(io.Discard).Encode(resp)
	})
	return resp, err
}
