package main

import (
	"fmt"
	"math"
	"time"

	"qwm/internal/bench"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

const (
	// paperWorstErrPct is the paper's worst delay error against SPICE
	// (Table II); a reproduction row above it fails the output check.
	paperWorstErrPct = 3.66
	// paperWindowPasses is the number of passes over the rows in one
	// latency window.
	paperWindowPasses = 100
)

// paperRows builds the workloads of the paper's Table I (minimum-size
// inverter and NAND2–4 at 15 fF) and Table II (18 random NMOS stacks of
// length 5–10), exactly as internal/bench.Harness.Table1/Table2 do.
func paperRows(tech *mos.Tech) ([]*stages.Workload, error) {
	inv, err := stages.Inverter(tech, 0.8e-6, 1.6e-6, 15e-15, 0)
	if err != nil {
		return nil, err
	}
	rows := []*stages.Workload{inv}
	for _, n := range []int{2, 3, 4} {
		g, err := stages.NAND(tech, n, 0.8e-6, 1.6e-6, 15e-15, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, g)
	}
	for k := 5; k <= 10; k++ {
		for cfg := 0; cfg < 3; cfg++ {
			w, err := stages.RandomStack(tech, k, int64(k*10+cfg))
			if err != nil {
				return nil, err
			}
			w.Name = fmt.Sprintf("%d/ckt%d", k, cfg+1)
			rows = append(rows, w)
		}
	}
	return rows, nil
}

// paper_tables: QWM against the SPICE referee on the paper's rows,
// in-process through internal/bench.Harness. The timed window repeats QWM
// over every row in seeded order; SPICE runs once per row and step
// afterwards, outside it.
func runPaper(r *run) error {
	var (
		h      *bench.Harness
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		hh, err := bench.NewHarness(mos.CMOSP35())
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		h = hh
	}
	r.setMedian("setup_s", "s", setups)
	rows, err := paperRows(h.Tech)
	if err != nil {
		return err
	}

	// Timed window: whole seeded passes over the rows.
	type rowRuns struct {
		delay            float64
		evalUS           []float64
		nrIters, regions int
	}
	runs := make([]rowRuns, len(rows))
	win := &windows{n: paperWindowPasses * len(rows)}
	n := 0
	order := newRand(r.seed, "paper-order")
	deadline := time.Now().Add(r.seconds)
	for time.Now().Before(deadline) || !win.enough() {
		for _, i := range order.Perm(len(rows)) {
			t := time.Now()
			q, err := h.RunQWM(rows[i], qwm.Options{})
			d := time.Since(t)
			n++
			rr := &runs[i]
			switch {
			case err != nil:
				r.check(fmt.Errorf("%s: qwm: %w", rows[i].Name, err))
				win.add(math.Inf(1), d)
				continue
			case math.IsNaN(q.Delay) || math.IsInf(q.Delay, 0) || q.Delay <= 0:
				r.check(fmt.Errorf("%s: qwm delay %g", rows[i].Name, q.Delay))
			case len(rr.evalUS) > 0 && q.Delay != rr.delay:
				r.check(fmt.Errorf("%s: qwm delay %g, earlier run gave %g", rows[i].Name, q.Delay, rr.delay))
			default:
				r.check(nil)
			}
			rr.delay = q.Delay
			rr.evalUS = append(rr.evalUS, us(q.Runtime))
			rr.nrIters += q.NRIters
			rr.regions += q.Steps
			win.add(ms(d), d)
		}
	}
	if err := win.publish(r); err != nil {
		return err
	}
	r.stamp["qwm_runs"] = n
	// Per-row summaries replace the samples before the heap is measured, so
	// heap_mb does not count the benchmark's own bookkeeping.
	evalUS := make([]float64, len(rows))
	nr := make([]float64, len(rows))
	regions := make([]float64, len(rows))
	for i, rr := range runs {
		if len(rr.evalUS) == 0 {
			return fmt.Errorf("%s: no QWM run in the timed window", rows[i].Name)
		}
		n := float64(len(rr.evalUS))
		evalUS[i], nr[i], regions[i] = median(rr.evalUS), float64(rr.nrIters)/n, float64(rr.regions)/n
		runs[i].evalUS = nil
	}
	r.set("heap_mb", "MB", liveHeapMB())

	// The referee: SPICE at 1 ps and 10 ps on every row.
	var errs, s1ms, s10ms, sp1, sp10 []float64
	spiceNR := 0
	for i, w := range rows {
		s1, err := h.RunSpice(w, 1e-12)
		if err != nil {
			return fmt.Errorf("%s: spice 1ps: %w", w.Name, err)
		}
		s10, err := h.RunSpice(w, 10e-12)
		if err != nil {
			return fmt.Errorf("%s: spice 10ps: %w", w.Name, err)
		}
		e := wave.DelayErrorPct(runs[i].delay, s1.Delay)
		if e > paperWorstErrPct || math.IsNaN(e) {
			r.check(fmt.Errorf("%s: delay error %.3f%% against SPICE 1 ps exceeds the paper's %.2f%%", w.Name, e, paperWorstErrPct))
		} else {
			r.check(nil)
		}
		errs = append(errs, e)
		s1ms = append(s1ms, ms(s1.Runtime))
		s10ms = append(s10ms, ms(s10.Runtime))
		sp1 = append(sp1, us(s1.Runtime)/evalUS[i])
		sp10 = append(sp10, us(s10.Runtime)/evalUS[i])
		spiceNR += s1.NRIters
	}
	r.stamp["rows"] = len(rows)
	r.stamp["err_pct_mean"] = mean(errs)
	r.stamp["err_pct_max"] = maxOf(errs)
	r.set("ok_ratio", "ratio", r.okRatio())

	r.setMedian("qwm.direct_us", "us", evalUS)
	r.set("qwm.nr_iters", "count", mean(nr))
	r.set("qwm.regions", "count", mean(regions))
	r.set("spice.tran1ps_ms", "ms", sum(s1ms))
	r.set("spice.tran10ps_ms", "ms", sum(s10ms))
	r.set("spice.nr_iters", "count", float64(spiceNR)/float64(len(rows)))
	r.set("paper.speedup_1ps", "ratio", geomean(sp1))
	r.set("paper.speedup_10ps", "ratio", geomean(sp10))
	r.set("paper.err_pct_mean", "%", mean(errs))
	r.set("paper.err_pct_max", "%", maxOf(errs))
	return nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
