package main

import "fmt"

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct{ name, unit, better string }

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"max_rps", "1/s", "higher"},
	{"heap_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayer are the traced metrics. A workload that does not exercise a
// layer reports 0 for it.
var perLayer = []metricDef{
	{"v1.decode_us", "us", "lower"},
	{"netlist.parse_us", "us", "lower"},
	{"circuit.extract_us", "us", "lower"},
	{"sta.front_us", "us", "lower"},
	{"sta.gather_us", "us", "lower"},
	{"sta.hit_lookup_ns", "ns", "lower"},
	{"v1.encode_us", "us", "lower"},
	{"frontend_share_pct", "%", "lower"},
	{"service.queue_wait_ms_p50", "ms", "lower"},
	{"service.queue_wait_ms_p99", "ms", "lower"},
	{"service.shed_ratio", "ratio", "lower"},
	{"qwm.eval_us", "us", "lower"},
	{"qwm.nr_iters", "count", "lower"},
	{"qwm.regions", "count", "lower"},
	{"qwm.dense_fallbacks", "count", "lower"},
	{"sta.nonqwm_tier_evals", "count", "lower"},
	{"sta.pool_efficiency", "ratio", "higher"},
	{"sta.evals_per_s", "1/s", "higher"},
	{"sta.evals_per_req", "count", "lower"},
	{"sta.hit_ratio", "ratio", "higher"},
	{"sta.cache_entries", "count", "lower"},
	{"runtime.allocs_per_req", "count", "lower"},
	{"runtime.alloc_kb_per_req", "KiB", "lower"},
	{"qwm.direct_us", "us", "lower"},
	{"spice.tran1ps_ms", "ms", "lower"},
	{"spice.tran10ps_ms", "ms", "lower"},
	{"spice.nr_iters", "count", "lower"},
	{"paper.speedup_1ps", "ratio", "higher"},
	{"paper.speedup_10ps", "ratio", "higher"},
	{"paper.err_pct_mean", "%", "lower"},
	{"paper.err_pct_max", "%", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
}

// published selects the metrics the result line carries: every end-to-end
// metric untraced, every per-layer metric traced.
func published(r *run) (map[string]metric, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case !ok && r.trace:
			m = metric{Value: 0, Unit: d.unit}
		case !ok:
			return nil, fmt.Errorf("%s did not report %s", r.workload, d.name)
		case m.Unit != d.unit:
			return nil, fmt.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	return out, nil
}
