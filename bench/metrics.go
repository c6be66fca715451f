package main

import (
	"math"
	"slices"
)

// metricDef names one reported number. The table is the benchmark's metric
// contract, in report order; BENCHMARK.json lists the same names and units
// (bench_test.go checks that they agree). README.md defines each metric and
// the end-to-end metric each layer metric should move.
type metricDef struct {
	name, unit string
	layer      bool // reported with -trace 1; end-to-end metrics with -trace 0
}

var metricDefs = []metricDef{
	{"execs_per_s", "exec/s", false},
	{"setup_s", "s", false},
	{"peak_rss_mb", "MiB", false},
	{"alloc_bytes_per_exec", "B", false},
	{"detections_found", "count", false},

	{"races_found", "count", true},
	{"weak_outcomes_found", "count", true},
	{"execs_to_races", "exec", true},
	{"campaign.overhead_pct", "%", true},
	{"campaign.tool_new_us", "us", true},
	{"campaign.cold_exec_us", "us", true},
	{"campaign.units", "count", true},
	{"core.bare_execs_per_s", "exec/s", true},
	{"core.execute_us_p50", "us", true},
	{"core.execute_us_p99", "us", true},
	{"core.reset_us", "us", true},
	{"core.run_us", "us", true},
	{"core.race_us", "us", true},
	{"core.model_self_us", "us", true},
	{"core.steps", "count", true},
	{"core.choices", "count", true},
	{"core.actions", "count", true},
	{"sched.handoff_wait_us", "us", true},
	{"sched.handoff_ns_per_step", "ns", true},
	{"sched.spawns_per_kexec", "count", true},
	{"mograph.nodes", "count", true},
	{"mograph.edges", "count", true},
	{"mograph.merge_ops", "count", true},
	{"race.reports", "count", true},
	{"capi.atomic_ops", "count", true},
	{"capi.normal_ops", "count", true},
	{"axiom.check_us", "us", true},
	{"analysis.atomicity_us", "us", true},
	{"analysis.sc-robustness_us", "us", true},
	{"analysis.findings", "count", true},
	{"tool.c11tester.bare_execs_per_s", "exec/s", true},
	{"tool.tsan11.bare_execs_per_s", "exec/s", true},
	{"tool.tsan11rec.bare_execs_per_s", "exec/s", true},
	{"paper.speedup_vs_tsan11", "x", true},
	{"paper.speedup_vs_tsan11rec", "x", true},
	{"bench.trace_overhead_pct", "%", true},
}

// quartiles returns the first quartile, median and third quartile of xs by
// the inclusive method (Python's statistics.quantiles(xs, n=4,
// method="inclusive")).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
