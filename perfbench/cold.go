package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"qwm/internal/obs"
)

const (
	// coldHeapAt is the request count after which cold_fresh measures the
	// live heap: a fixed amount of work, so heap_mb does not grow with
	// throughput. A run that has not reached it by its deadline goes on
	// until it does.
	coldHeapAt = 1000
	// coldReplay is the number of cold_fresh requests the traced replay
	// serves.
	coldReplay = 300
	// coldWindow is the request count of one latency window: enough for a
	// p90 with ten samples beyond it.
	coldWindow = 110
)

// coldLoad is one closed-loop client walking the cold_fresh stream.
type coldLoad struct {
	r       *run
	rg      *rig
	gen     *coldGen
	traces  *traceFetcher
	windows *windows   // untraced runs: latency windows
	lats    []float64  // traced runs: ms per request, +Inf for failures
	digests [][32]byte // canonical answer per request, zero for failures
	evals   int
	busy    time.Duration
}

func newColdLoad(r *run, rg *rig) *coldLoad {
	return &coldLoad{r: r, rg: rg, gen: newColdGen(rg.tech, r.seed)}
}

// send generates the next request, posts it and checks the answer. Only
// the exchange itself is timed.
func (c *coldLoad) send() error {
	req, err := c.gen.next()
	if err != nil {
		return err
	}
	t := time.Now()
	rp, err := c.rg.post(req.Body)
	d := time.Since(t)
	c.busy += d
	if err != nil {
		return err
	}
	c.traces.add(rp.traceID)
	resp, err := checkResponse(rp, req)
	var digest [32]byte
	lat := math.Inf(1)
	if c.r.check(err) {
		lat = ms(d)
		c.evals += resp.Result.StagesEvaluated
		digest = sha256.Sum256(canonical(resp))
	}
	c.digests = append(c.digests, digest)
	if c.windows != nil {
		c.windows.add(lat, d)
	} else {
		c.lats = append(c.lats, lat)
	}
	return nil
}

// matches checks an in-process answer against the service's i-th answer.
func (c *coldLoad) matches(i int, canon []byte) error {
	if i >= len(c.digests) || c.digests[i] == ([32]byte{}) {
		return nil
	}
	if sha256.Sum256(canon) != c.digests[i] {
		return fmt.Errorf("c%d: service answer differs from the in-process analyzer's", i)
	}
	return nil
}

// cold_fresh: a closed loop with one client, every request a deck the server
// has never seen, so nearly every delay-cache probe misses and the solver
// does the work.
func runCold(r *run) error {
	if r.trace {
		return traceCold(r)
	}
	rg, setups, err := setupRigs(setupReps)
	if err != nil {
		return err
	}
	defer rg.close()
	r.setMedian("setup_s", "s", setups)

	c := newColdLoad(r, rg)
	c.windows = &windows{n: coldWindow}
	heap := 0.0
	deadline := time.Now().Add(r.seconds)
	for time.Now().Before(deadline) || len(c.digests) < coldHeapAt || !c.windows.enough() {
		if err := c.send(); err != nil {
			return err
		}
		if len(c.digests) == coldHeapAt {
			heap = liveHeapMB()
		}
	}
	if err := c.windows.publish(r); err != nil {
		return err
	}

	// Outside the timed window: an in-process analyzer set fed the same
	// request sequence with the same configuration must give the same
	// answers.
	ref := newEngine()
	again := newColdGen(ref.tech, r.seed)
	for i := range c.digests {
		req, err := again.next()
		if err != nil {
			return err
		}
		resp, err := ref.answer(req.Body, nil)
		if err == nil {
			err = c.matches(i, canonical(resp))
		}
		r.check(err)
	}

	r.stamp["requests"] = len(c.digests)
	r.stamp["stages_evaluated"] = c.evals
	r.stamp["evals_per_s"] = float64(c.evals) / c.busy.Seconds()
	r.set("heap_mb", "MB", heap)
	r.set("ok_ratio", "ratio", r.okRatio())
	return nil
}

// traceCold is cold_fresh's traced run: the closed loop untraced, the same
// requests again on a fresh server with the flight recorder on, then the
// layer replay and the allocation count on fresh in-process analyzers.
func traceCold(r *run) error {
	rg, err := newRig(nil)
	if err != nil {
		return err
	}
	c := newColdLoad(r, rg)
	deadline := time.Now().Add(time.Duration(traceShare * float64(r.seconds)))
	for time.Now().Before(deadline) {
		if err := c.send(); err != nil {
			rg.close()
			return err
		}
	}
	rg.close()

	rt, err := newRig(obs.NewFlightRecorder())
	if err != nil {
		return err
	}
	ct := newColdLoad(r, rt)
	ct.traces = newTraceFetcher(rt.flight, len(c.lats))
	for range c.lats {
		if err := ct.send(); err != nil {
			ct.traces.stop()
			rt.close()
			return err
		}
	}
	ct.traces.stop()
	rt.close()
	ct.traces.publish(r)

	gen := newColdGen(rg.tech, r.seed)
	bodies := make([][]byte, coldReplay)
	for i := range bodies {
		req, err := gen.next()
		if err != nil {
			return err
		}
		bodies[i] = req.Body
	}
	e := newEngine()
	rep := replay(e, bodies, c.matches, r)
	allocsPerRequest(newEngine(), bodies, r)

	p50, p50t := quantile(c.lats, 0.5), quantile(ct.lats, 0.5)
	rep.publish(r, p50)
	rep.writeSample(r)
	r.set("sta.cache_entries", "count", float64(e.cacheEntries()))
	r.set("sta.evals_per_s", "1/s", float64(c.evals)/c.busy.Seconds())
	r.set("trace_overhead_pct", "%", 100*(p50t-p50)/p50)
	r.stamp["requests"] = len(c.lats)
	r.stamp["p50_ms_untraced"], r.stamp["p50_ms_traced"] = p50, p50t
	return nil
}
