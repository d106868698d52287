package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified. It
// returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is a metric's distribution across the repeats of one run (set-ups,
// windows or rows): the reported value is its median.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func spreadOf(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{
		Median: sortedQuantile(s, 0.5),
		Q1:     sortedQuantile(s, 0.25),
		Q3:     sortedQuantile(s, 0.75),
		N:      len(s),
	}
}

// tailOK reports whether a sample of n supports the q-quantile with at least
// ten samples beyond it.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// windows splits a loop's samples into consecutive windows of n requests.
// A run reports medians over its complete windows, so a slow stretch of a
// shared host moves only the windows it covers. The stamped p99 pools every
// sample of the run.
type windows struct {
	n             int
	cur, all      []float64
	busy          time.Duration
	p50, p90, rps []float64
}

// minWindows is the fewest complete windows a run reports from; a loop
// runs past its deadline until it has them, so a slower program still
// reports instead of failing.
const minWindows = 5

func (w *windows) enough() bool { return len(w.p50) >= minWindows }

// add records one request's latency (+Inf for a failure) and busy time.
func (w *windows) add(latMS float64, busy time.Duration) {
	w.cur = append(w.cur, latMS)
	w.all = append(w.all, latMS)
	w.busy += busy
	if len(w.cur) < w.n {
		return
	}
	w.p50 = append(w.p50, quantile(w.cur, 0.5))
	w.p90 = append(w.p90, quantile(w.cur, 0.9))
	w.rps = append(w.rps, float64(len(w.cur))/w.busy.Seconds())
	w.cur, w.busy = w.cur[:0], 0
}

// publish sets p50_ms, p90_ms and max_rps as medians over the windows,
// stamps the p99 of the pooled samples, and drops the samples.
func (w *windows) publish(r *run) error {
	if !w.enough() || !tailOK(w.n, 0.9) {
		return fmt.Errorf("%d complete windows of %d requests, want %d", len(w.p50), w.n, minWindows)
	}
	r.setMedian("p50_ms", "ms", w.p50)
	r.setMedian("p90_ms", "ms", w.p90)
	r.setMedian("max_rps", "1/s", w.rps)
	if tailOK(len(w.all), 0.99) {
		r.stamp["p99_ms"] = quantile(w.all, 0.99)
	}
	r.stamp["samples"] = len(w.all)
	r.stamp["windows"] = len(w.p50)
	r.stamp["window_requests"] = w.n
	w.all = nil
	return nil
}
