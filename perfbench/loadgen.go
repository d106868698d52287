package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one generated request.
type outcome int

const (
	outOK     outcome = iota // answered and checked correct
	outShed                  // refused with 429
	outFailed                // transport error, wrong status or wrong answer
)

// missed stands in for the latency of a request that failed or was shed: it
// misses every latency limit.
const missed = time.Duration(math.MaxInt64)

// phase is the accounting of one open-loop phase at one offered rate.
type phase struct {
	Rate   float64 `json:"rate"`
	Sent   int     `json:"sent"`
	OK     int     `json:"ok"`
	Shed   int     `json:"shed_429"`
	Failed int     `json:"failed"`
	// LateP99MS is how late the generator sent, due time → send, p99.
	LateP99MS float64 `json:"late_ms_p99"`
	// LateFinalMS is the largest lateness among the last tenth of the
	// phase's sends; it grows with a backlog that the server cannot drain.
	LateFinalMS float64 `json:"late_final_ms"`
	P50MS       float64 `json:"p50_ms"`
	P90MS       float64 `json:"p90_ms"`
	P99MS       float64 `json:"p99_ms"`
	// AchievedRPS is answered-correct requests per second of phase wall
	// time (first due time → last completion).
	AchievedRPS float64 `json:"achieved_rps"`
	// Stopped marks a phase ended early by its miss budget.
	Stopped bool `json:"stopped_early,omitempty"`
	// Pass reports whether a ladder rung met the latency limit; reference
	// phases are not judged.
	Pass bool `json:"meets_limit,omitempty"`

	// lat holds due → completion per request, missed for failures; late
	// holds due → send.
	lat, late []time.Duration
}

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate requests/s over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// missBudget ends a phase once more than n of its requests have failed or
// taken longer than limit: the phase has then failed its p99 limit
// whatever the rest do, and sending them would only deepen the backlog.
// The zero value never ends a phase early.
type missBudget struct {
	limit time.Duration
	n     int
}

// openLoop sends len(sched) requests, request i due at start+sched[i],
// regardless of how earlier requests fare. workers goroutines share the
// schedule in order, each holding at most one request in flight, so a
// server that falls behind makes later requests late: each latency is
// measured from the due time, not the send time, and the stall shows up in
// every request queued behind it.
//
// send performs request i, checks it, and returns the outcome with the time
// the response was complete, so the check itself is not counted.
func openLoop(workers int, sched []time.Duration, budget missBudget, send func(i int) (outcome, time.Time)) phase {
	n := len(sched)
	lat := make([]time.Duration, n)
	late := make([]time.Duration, n)
	outs := make([]outcome, n)
	var next, misses, lastDone atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if d := sched[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				o, at := send(i)
				done := at.Sub(start)
				for {
					prev := lastDone.Load()
					if int64(done) <= prev || lastDone.CompareAndSwap(prev, int64(done)) {
						break
					}
				}
				late[i], outs[i] = sent-sched[i], o
				lat[i] = done - sched[i]
				if o != outOK {
					lat[i] = missed
				}
				if budget.n > 0 && lat[i] > budget.limit && int(misses.Add(1)) > budget.n {
					stopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	// Every taken index was sent, and indices are taken in order.
	if taken := int(next.Load()); taken < n {
		n = taken
	}
	lat, late, outs = lat[:n], late[:n], outs[:n]
	p := phase{Sent: n, lat: lat, late: late, Stopped: stopped.Load()}
	for _, o := range outs {
		switch o {
		case outOK:
			p.OK++
		case outShed:
			p.Shed++
		default:
			p.Failed++
		}
	}
	if n == 0 {
		return p
	}
	p.P50MS = ms(quantileDur(lat, 0.50))
	p.P90MS = ms(quantileDur(lat, 0.90))
	p.P99MS = ms(quantileDur(lat, 0.99))
	p.LateP99MS = ms(quantileDur(late, 0.99))
	for _, l := range late[n-n/10-1:] {
		p.LateFinalMS = math.Max(p.LateFinalMS, ms(l))
	}
	if wall := time.Duration(lastDone.Load()) - sched[0]; wall > 0 {
		p.AchievedRPS = float64(p.OK) / wall.Seconds()
	}
	return p
}

// quantileDur is quantile over durations; missed samples sort last.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}
