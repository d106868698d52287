package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"time"

	"qwm/internal/api/v1"
	"qwm/internal/obs"
)

// warm_repeat: open loop over a fixed, warmed pool, so every delay-cache
// probe hits and the request pays only for the service's front end.
const (
	// warmLimit is the p99 latency limit a ladder rate must meet.
	warmLimit = 50 * time.Millisecond
	// warmRefRate is the fixed rate p50_ms and p90_ms are measured at. It
	// is light load: requests rarely overlap, so the latencies follow the
	// service time instead of amplifying the host's speed changes through
	// queueing.
	warmRefRate = 100.0
	// warmRounds is the number of rounds a run makes; each measures the
	// reference rate and then finds the highest ladder rate that meets the
	// limit. p50_ms, p90_ms and max_rps are medians over the rounds; the
	// stamped p99 pools the rounds' reference samples.
	warmRounds = 4
	// warmRefShare is the share of the run each round spends at
	// warmRefRate; the rounds together send at least refSamples requests
	// at it.
	warmRefShare = 0.1
	refSamples   = 1200
	// rungSamples is the expected request count of one ladder rung: enough
	// for a p99 with ten samples beyond it.
	rungSamples = 1100
)

// warmLadder is the fixed rate ladder, in requests/s: warmRefRate rising
// in steps of 10 % to 10,755, so a rung more or less moves max_rps by
// a tenth. The top is over ten times what the generator's connections carry
// at today's warm latency; a search starts near capacity (ladderStart), so
// the high rungs cost nothing until a faster program reaches them.
var warmLadder = func() []float64 {
	out := []float64{warmRefRate}
	for len(out) < 50 {
		out = append(out, math.Round(out[len(out)-1]*1.1))
	}
	return out
}()

// warmLoad drives one warmed rig.
type warmLoad struct {
	r     *run
	rg    *rig
	pool  []request
	exact [][]byte // expected response bytes (untraced rig)
	canon [][]byte // expected canonical responses (traced rig)
	order *rand.Rand
	sched *rand.Rand
	// traces, when set, receives every response's trace id.
	traces *traceFetcher
}

func newWarmLoad(r *run, rg *rig) (*warmLoad, error) {
	w := &warmLoad{
		r: r, rg: rg,
		order: newRand(r.seed, "warm-order"),
		sched: newRand(r.seed, "warm-schedule"),
	}
	return w, w.warmUp()
}

// warmUp sends every pool deck twice. The first pass fills the delay cache;
// the second must evaluate nothing and answer exactly as the first did, and
// its response becomes the answer every later request for the deck is
// checked against.
func (w *warmLoad) warmUp() error {
	pool, err := warmPool(w.rg.tech, w.r.seed)
	if err != nil {
		return err
	}
	w.pool = pool
	w.exact = make([][]byte, len(pool))
	w.canon = make([][]byte, len(pool))
	cold := make([][]byte, len(pool))
	for pass := 0; pass < 2; pass++ {
		for k, req := range pool {
			rp, err := w.rg.post(req.Body)
			if err != nil {
				return err
			}
			resp, err := checkResponse(rp, req)
			if !w.r.check(err) {
				continue
			}
			n := resp.Result.StagesEvaluated
			resp.Result.StagesEvaluated = 0
			if pass == 0 {
				cold[k] = canonical(resp)
				continue
			}
			if n != 0 {
				w.r.check(fmt.Errorf("%s: warm repeat evaluated %d stages", req.ID, n))
			} else if !bytes.Equal(canonical(resp), cold[k]) {
				w.r.check(fmt.Errorf("%s: warm answer differs from the cold one", req.ID))
			}
			w.exact[k], w.canon[k] = rp.body, cold[k]
		}
	}
	return nil
}

// deal lists n pool indices, the pool dealt in seeded permutations.
func (w *warmLoad) deal(n int) []int {
	out := make([]int, 0, n+len(w.pool))
	for len(out) < n {
		out = append(out, w.order.Perm(len(w.pool))...)
	}
	return out[:n]
}

// verify checks one warm reply against its deck's warm-up answer.
func (w *warmLoad) verify(k int, rp reply) error {
	req := w.pool[k]
	if rp.status == http.StatusTooManyRequests {
		return fmt.Errorf("%s: refused with 429", req.ID)
	}
	if w.traces == nil {
		if !bytes.Equal(rp.body, w.exact[k]) {
			return fmt.Errorf("%s: response differs from its warm-up response: %.300s", req.ID, rp.body)
		}
		return nil
	}
	var resp v1.AnalyzeResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil || !bytes.Equal(canonical(resp), w.canon[k]) {
		return fmt.Errorf("%s: response differs from its warm-up response: %.300s", req.ID, rp.body)
	}
	return nil
}

// phase runs one open-loop phase at rate for dur. A ladder rung stops
// early once it has failed the limit; a reference phase always runs out.
func (w *warmLoad) phase(rate float64, dur time.Duration, rung bool) phase {
	sched := poissonSchedule(w.sched, rate, dur)
	reqs := w.deal(len(sched))
	var budget missBudget
	if rung {
		budget = missBudget{limit: warmLimit, n: len(sched) / 100}
	}
	p := openLoop(conns(), sched, budget, func(i int) (outcome, time.Time) {
		k := reqs[i]
		rp, err := w.rg.post(w.pool[k].Body)
		done := time.Now()
		if err == nil {
			err = w.verify(k, rp)
			w.traces.add(rp.traceID)
		}
		switch {
		case w.r.check(err):
			return outOK, done
		case rp.status == http.StatusTooManyRequests:
			return outShed, done
		}
		return outFailed, done
	})
	p.Rate = rate
	p.Pass = rung && !p.Stopped && p.Shed == 0 && p.Failed == 0 && tailOK(p.Sent, 0.99) &&
		p.P99MS <= ms(warmLimit) && p.LateFinalMS <= ms(warmLimit)
	return p
}

func runWarm(r *run) error {
	if r.trace {
		return traceWarm(r)
	}
	rg, setups, err := setupRigs(setupReps)
	if err != nil {
		return err
	}
	defer rg.close()
	r.setMedian("setup_s", "s", setups)
	w, err := newWarmLoad(r, rg)
	if err != nil {
		return err
	}

	var (
		refP50, refP90, maxRPS []float64
		phases                 []phase
		pooled                 []time.Duration
	)
	refDur := time.Duration(math.Max(warmRefShare*r.seconds.Seconds(), refSamples/warmRefRate/warmRounds) * float64(time.Second))
	start := -1
	for round := 0; round < warmRounds; round++ {
		ref := w.phase(warmRefRate, refDur, false)
		if start < 0 {
			start = ladderStart(ref)
		}
		refP50 = append(refP50, ref.P50MS)
		refP90 = append(refP90, ref.P90MS)
		pooled = append(pooled, ref.lat...)
		best, rps, climbed := w.climb(start)
		phases = append(append(phases, ref), climbed...)
		if best == len(warmLadder)-1 {
			// The top rung passed: the true maximum is higher.
			r.stamp["max_rps_clipped"] = true
			fmt.Fprintf(os.Stderr, "perfbench: warm_repeat: round %d passed the top ladder rate %.0f/s; max_rps is clipped\n", round, warmLadder[best])
		}
		start = best
		maxRPS = append(maxRPS, rps)
	}
	if !tailOK(len(pooled), 0.99) {
		return fmt.Errorf("the reference rate sent %d requests, too few for p99", len(pooled))
	}
	r.stamp["p99_ms"] = ms(quantileDur(pooled, 0.99))
	r.stamp["ref_samples"] = len(pooled)
	pooled = nil
	for i := range phases {
		phases[i].lat, phases[i].late = nil, nil
	}
	r.stamp["phases"] = phases
	r.stamp["latency_limit_ms"] = ms(warmLimit)

	r.setMedian("p50_ms", "ms", refP50)
	r.setMedian("p90_ms", "ms", refP90)
	r.setMedian("max_rps", "1/s", maxRPS)
	r.set("heap_mb", "MB", liveHeapMB())
	r.set("ok_ratio", "ratio", r.okRatio())
	return nil
}

// ladderStart picks the rung a search starts from: the highest at or below
// the rate the generator's connections could carry at the reference
// phase's mean latency.
func ladderStart(ref phase) int {
	var total time.Duration
	n := 0
	for _, l := range ref.lat {
		if l != missed {
			total += l
			n++
		}
	}
	start := 0
	if n == 0 {
		return start
	}
	capacity := float64(conns()) / (total / time.Duration(n)).Seconds()
	for i, rate := range warmLadder {
		if rate <= capacity {
			start = i
		}
	}
	return start
}

// climb finds the highest ladder rung that meets the latency limit,
// starting at rung start and moving up while rungs pass or down until one
// does. It returns the rung index (-1 if none passes), the rate that rung
// achieved, and the phases run.
func (w *warmLoad) climb(start int) (best int, rps float64, phases []phase) {
	rung := func(i int) bool {
		rate := warmLadder[i]
		p := w.phase(rate, time.Duration(rungSamples/rate*float64(time.Second)), true)
		phases = append(phases, p)
		if p.Pass {
			best, rps = i, p.AchievedRPS
		}
		return p.Pass
	}
	best = -1
	if !rung(start) {
		for i := start - 1; i >= 0 && !rung(i); i-- {
		}
		return best, rps, phases
	}
	for i := start + 1; i < len(warmLadder) && rung(i); i++ {
	}
	return best, rps, phases
}

// warmReplay is the number of warm_repeat requests the traced replay
// serves.
const warmReplay = 300

// traceWarm is warm_repeat's traced run: the open loop at the reference
// rate untraced, the same load on a fresh server with the flight recorder
// on, then the layer replay and the allocation count on warmed in-process
// analyzers.
func traceWarm(r *run) error {
	dur := time.Duration(traceShare * float64(r.seconds))
	rg, err := newRig(nil)
	if err != nil {
		return err
	}
	w, err := newWarmLoad(r, rg)
	if err != nil {
		rg.close()
		return err
	}
	plain := w.phase(warmRefRate, dur, false)
	rg.close()

	rt, err := newRig(obs.NewFlightRecorder())
	if err != nil {
		return err
	}
	wt, err := newWarmLoad(r, rt)
	if err != nil {
		rt.close()
		return err
	}
	// Twice the expected Poisson count: the buffer never fills.
	wt.traces = newTraceFetcher(rt.flight, int(2*warmRefRate*dur.Seconds())+64)
	traced := wt.phase(warmRefRate, dur, false)
	wt.traces.stop()
	rt.close()
	wt.traces.publish(r)

	deal := w.deal(warmReplay)
	bodies := make([][]byte, len(deal))
	for i, k := range deal {
		bodies[i] = w.pool[k].Body
	}
	warmed := func() *engine {
		e := newEngine()
		for pass := 0; pass < 2; pass++ {
			for _, q := range w.pool {
				_, err := e.answer(q.Body, nil)
				r.check(err)
			}
		}
		return e
	}
	e := warmed()
	rep := replay(e, bodies, func(i int, canon []byte) error {
		if !bytes.Equal(canon, w.canon[deal[i]]) {
			return fmt.Errorf("%s: in-process answer differs from the service's", w.pool[deal[i]].ID)
		}
		return nil
	}, r)
	allocsPerRequest(warmed(), bodies, r)

	rep.publish(r, plain.P50MS)
	rep.writeSample(r)
	r.set("sta.cache_entries", "count", float64(e.cacheEntries()))
	r.set("trace_overhead_pct", "%", 100*(traced.P50MS-plain.P50MS)/plain.P50MS)
	r.set("loadgen.late_ms_p99", "ms", plain.LateP99MS)
	r.set("service.shed_ratio", "ratio", float64(plain.Shed+traced.Shed)/float64(plain.Sent+traced.Sent))
	r.stamp["phases"] = []phase{plain, traced}
	return nil
}
