package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"qwm/internal/obs"
)

// The traced replay. Each request is served in-process by engine.answer,
// which calls the service's public layer functions in service order; this
// file records a span around each call and, through an sta.Request
// Observer, spans inside sta.AnalyzeContext:
//
//	v1.decode | netlist.parse | sta.analyze | circuit.extract | v1.encode
//	                            ├ sta.front   call entry → AnalyzeStart
//	                            ├ sta.gather  input gather and key build, per level
//	                            ├ sta.level   LevelStart → last StageEval, per level
//	                            │  └ sta.eval one per stage-direction item
//	                            └ sta.tail    last StageEval → AnalyzeEnd
//
// A layer's self time is its span minus the part its child spans cover.

// span is one recorded interval; parent is an index into the same slice,
// -1 for a top-level layer.
type span struct {
	Name   string
	Parent int
	Start  time.Time
	End    time.Time
}

// item is one StageEval as the observer saw it.
type item struct {
	hit  bool
	dur  time.Duration
	info obs.StageEvalInfo
}

// reqTrace records the spans of one replayed request. Its observer methods
// may be called concurrently for StageEval.
type reqTrace struct {
	mu      sync.Mutex
	spans   []span
	open    map[string]int
	items   []item
	workers int
	level   int       // open sta.level span, -1 when none
	last    time.Time // latest StageEval completion of the open level
	edge    time.Time // where the next gather or tail span starts
	end     obs.AnalyzeEndInfo
}

func newReqTrace() *reqTrace { return &reqTrace{open: map[string]int{}, level: -1} }

func (t *reqTrace) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

func (t *reqTrace) hooks() *layerHooks {
	return &layerHooks{
		begin: func(layer string) {
			t.mu.Lock()
			t.open[layer] = t.add(layer, -1, time.Now(), time.Time{})
			t.mu.Unlock()
		},
		end: func(layer string) {
			now := time.Now()
			t.mu.Lock()
			t.spans[t.open[layer]].End = now
			t.mu.Unlock()
		},
		observer: t,
	}
}

func (t *reqTrace) AnalyzeStart(info obs.AnalyzeStartInfo) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.open["sta.analyze"]
	t.add("sta.front", a, t.spans[a].Start, now)
	t.workers = info.Workers
	t.edge = now
}

// closeLevel ends the open level at its last evaluation.
func (t *reqTrace) closeLevel() {
	if t.level >= 0 {
		t.spans[t.level].End = t.last
		t.edge = t.last
		t.level = -1
	}
}

func (t *reqTrace) LevelStart(obs.LevelStartInfo) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeLevel()
	a := t.open["sta.analyze"]
	t.add("sta.gather", a, t.edge, now)
	t.level = t.add("sta.level", a, now, time.Time{})
	t.last = now
}

func (t *reqTrace) StageEval(info obs.StageEvalInfo) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add("sta.eval", t.level, now.Add(-info.Duration), now)
	t.items = append(t.items, item{hit: info.CacheHit, dur: info.Duration, info: info})
	if now.After(t.last) {
		t.last = now
	}
}

func (t *reqTrace) AnalyzeEnd(info obs.AnalyzeEndInfo) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeLevel()
	t.add("sta.tail", t.open["sta.analyze"], t.edge, now)
	t.end = info
}

// selfTimes sums each layer's self time over the request.
func (t *reqTrace) selfTimes() map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += s.End.Sub(s.Start) - covered(s, t.spans, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals inside s.
func covered(s span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerReport aggregates a replay.
type layerReport struct {
	perReq                      map[string][]float64 // layer → per-request self time, µs
	hitNS, missUS               []float64
	nrIters, regions, dense     []float64
	nonQWM                      int
	evalBusy, levelCapacity     time.Duration
	hits, misses, stagesEvalled int64
	// plainHits and plainProbes count the requests without features, whose
	// hits can only come from another request.
	plainHits, plainProbes int64
	requests               int
	sample                 []*reqTrace // the first few requests, written out
}

const sampleTraces = 10

// replay serves bodies through e with layer spans and the observer
// attached. check compares each answer with the one the service gave.
func replay(e *engine, bodies [][]byte, check func(i int, canon []byte) error, r *run) *layerReport {
	rep := &layerReport{perReq: map[string][]float64{}}
	for i, body := range bodies {
		t := newReqTrace()
		resp, err := e.answer(body, t.hooks())
		if err == nil {
			err = check(i, canonical(resp))
		}
		if !r.check(err) {
			continue
		}
		rep.requests++
		for name, d := range t.selfTimes() {
			rep.perReq[name] = append(rep.perReq[name], us(d))
		}
		for _, it := range t.items {
			if it.hit {
				rep.hitNS = append(rep.hitNS, float64(it.dur))
				continue
			}
			rep.missUS = append(rep.missUS, us(it.dur))
			rep.nrIters = append(rep.nrIters, float64(it.info.QWM.NRIters))
			rep.regions = append(rep.regions, float64(it.info.QWM.Regions))
			rep.dense = append(rep.dense, float64(it.info.QWM.DenseFallbacks))
			if it.info.Tier != "qwm" {
				rep.nonQWM++
			}
		}
		// Every sta.eval span lies inside an sta.level span.
		for _, s := range t.spans {
			switch s.Name {
			case "sta.level":
				rep.levelCapacity += s.End.Sub(s.Start) * time.Duration(t.workers)
			case "sta.eval":
				rep.evalBusy += s.End.Sub(s.Start)
			}
		}
		rep.hits += t.end.CacheHits
		rep.misses += t.end.CacheMisses
		if !bytes.Contains(body, []byte(`"features"`)) {
			rep.plainHits += t.end.CacheHits
			rep.plainProbes += t.end.CacheHits + t.end.CacheMisses
		}
		rep.stagesEvalled += int64(t.end.StagesEvaluated)
		if len(rep.sample) < sampleTraces {
			rep.sample = append(rep.sample, t)
		}
	}
	return rep
}

// frontEnd lists the layers that do the same work whether or not the
// delay cache hits.
var frontEnd = []string{"v1.decode", "netlist.parse", "sta.front", "sta.gather", "v1.encode"}

// publish sets the per-layer metrics of a replay; p50MS is the untraced
// end-to-end median the front-end share is taken of.
func (rep *layerReport) publish(r *run, p50MS float64) {
	layer := func(metric, name string) float64 {
		v := median(rep.perReq[name])
		if len(rep.perReq[name]) == 0 {
			v = 0
		}
		r.set(metric, "us", v)
		return v
	}
	front := 0.0
	for _, name := range frontEnd {
		front += layer(name+"_us", name)
	}
	layer("circuit.extract_us", "circuit.extract")
	r.set("frontend_share_pct", "%", 100*(front/1000)/p50MS)
	if len(rep.hitNS) > 0 {
		r.set("sta.hit_lookup_ns", "ns", median(rep.hitNS))
	}
	if len(rep.missUS) > 0 {
		r.set("qwm.eval_us", "us", median(rep.missUS))
		r.set("qwm.nr_iters", "count", mean(rep.nrIters))
		r.set("qwm.regions", "count", mean(rep.regions))
		r.set("qwm.dense_fallbacks", "count", mean(rep.dense))
	}
	r.set("sta.nonqwm_tier_evals", "count", float64(rep.nonQWM))
	if rep.levelCapacity > 0 {
		r.set("sta.pool_efficiency", "ratio", float64(rep.evalBusy)/float64(rep.levelCapacity))
	}
	if n := rep.hits + rep.misses; n > 0 {
		r.set("sta.hit_ratio", "ratio", float64(rep.hits)/float64(n))
	}
	r.set("sta.evals_per_req", "count", float64(rep.stagesEvalled)/float64(rep.requests))
	if rep.plainProbes > 0 {
		r.stamp["hit_ratio_without_features"] = float64(rep.plainHits) / float64(rep.plainProbes)
	}
	r.stamp["replay_requests"] = rep.requests
	r.stamp["replay_items"] = len(rep.hitNS) + len(rep.missUS)
}

// allocsPerRequest serves bodies through e without tracing and reports the
// heap allocations per request.
func allocsPerRequest(e *engine, bodies [][]byte, r *run) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, body := range bodies {
		_, err := e.answer(body, nil)
		r.check(err)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(bodies))
	r.set("runtime.allocs_per_req", "count", float64(after.Mallocs-before.Mallocs)/n)
	r.set("runtime.alloc_kb_per_req", "KiB", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
}

// writeSample writes the sampled requests' spans as Chrome trace events
// under .bench_build/traces; failing to write is reported, not fatal.
func (rep *layerReport) writeSample(r *run) {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	var evs []event
	for i, t := range rep.sample {
		if len(t.spans) == 0 {
			continue
		}
		epoch := t.spans[0].Start
		for _, s := range t.spans {
			evs = append(evs, event{Name: s.Name, Ph: "X", TS: us(s.Start.Sub(epoch)), Dur: us(s.End.Sub(s.Start)), PID: i})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err == nil {
		dir := filepath.Join(".bench_build", "traces")
		if err = os.MkdirAll(dir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed)), b, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing sample trace:", err)
	}
}

// traceFetcher pulls each request's trace from the flight recorder as soon
// as its id arrives, before the recorder's small recent ring can evict it,
// and keeps the queue wait: the gap between the end of admission (the
// enqueue span) and the start of the worker span.
type traceFetcher struct {
	fl      *obs.FlightRecorder
	ids     chan string
	done    chan struct{}
	waitsMS []float64
	missing int
}

// newTraceFetcher starts the fetcher; n is the number of ids expected, the
// buffer size that keeps senders from ever waiting on it.
func newTraceFetcher(fl *obs.FlightRecorder, n int) *traceFetcher {
	f := &traceFetcher{fl: fl, ids: make(chan string, n), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		for id := range f.ids {
			if w, ok := queueWait(f.get(id)); ok {
				f.waitsMS = append(f.waitsMS, w)
			} else {
				f.missing++
			}
		}
	}()
	return f
}

func (f *traceFetcher) add(id string) {
	if f != nil {
		f.ids <- id
	}
}

// stop waits for every queued id to be fetched.
func (f *traceFetcher) stop() {
	close(f.ids)
	<-f.done
}

// get waits briefly for a trace: the service records it after the response
// is written, so it can reach the recorder after the client has the reply.
func (f *traceFetcher) get(id string) *obs.RequestTrace {
	if id == "" {
		return nil
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for {
		if t := f.fl.Get(id); t != nil {
			return t
		}
		f.fl.Flush()
		if t := f.fl.Get(id); t != nil || time.Now().After(deadline) {
			return t
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func queueWait(t *obs.RequestTrace) (float64, bool) {
	if t == nil {
		return 0, false
	}
	var enq, wk *obs.ReqSpan
	for i := range t.Spans {
		switch t.Spans[i].Name {
		case "enqueue":
			enq = &t.Spans[i]
		case "worker":
			wk = &t.Spans[i]
		}
	}
	if enq == nil || wk == nil {
		return 0, false
	}
	return ms(wk.Start.Sub(enq.Start.Add(enq.Dur))), true
}

// publishQueue sets the queue-wait metrics of a traced pass.
func (f *traceFetcher) publish(r *run) {
	if len(f.waitsMS) > 0 {
		r.set("service.queue_wait_ms_p50", "ms", quantile(f.waitsMS, 0.5))
		r.set("service.queue_wait_ms_p99", "ms", quantile(f.waitsMS, 0.99))
	}
	r.stamp["traces_fetched"] = len(f.waitsMS)
	r.stamp["traces_missing"] = f.missing
	if f.missing > 0 {
		r.check(fmt.Errorf("%d traced responses had no retrievable trace", f.missing))
	}
}
