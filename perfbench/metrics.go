package main

import (
	"fmt"
	"io"
	"sort"
)

type metricDef struct{ name, unit string }

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists
// them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, as BENCHMARK.json lists them.
// A layer a workload does not exercise, or whose work happens inside
// crispd where the benchmark cannot time it, reads 0. The first two are
// whole-process wall times taken from the run's untraced processes: on a
// machine whose hypervisor steals a drifting share of the CPUs they spread
// too widely between runs to gate a change.
var perLayer = []metricDef{
	{"run_wall_s", "s"},
	{"req_p50_ms", "ms"},
	{"render.busy_s", "s"},
	{"render.calls", "count"},
	{"render.warp_insts", "count"},
	{"compute.busy_s", "s"},
	{"compute.calls", "count"},
	{"scenario.lower_s", "s"},
	{"sim.busy_s", "s"},
	{"sim.busy_s.MPS", "s"},
	{"sim.busy_s.MiG", "s"},
	{"sim.busy_s.EVEN", "s"},
	{"sim.busy_s.WarpedSlicer", "s"},
	{"sim.busy_s.TAP", "s"},
	{"sim.busy_s.Priority", "s"},
	{"sim.kips", "kinst/s"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.alloc_mb", "MB"},
	{"sim.allocs_per_kinst", "count/kinst"},
	{"sim.cycles", "count"},
	{"sim.warp_insts", "count"},
	{"engine.steps_executed", "count"},
	{"engine.steps_skipped", "count"},
	{"engine.skip_ratio", "ratio"},
	{"sm.sched_slots", "count"},
	{"sm.empty_slots", "count"},
	{"sm.stall_scoreboard", "count"},
	{"sm.stall_mem_pending", "count"},
	{"sm.stall_pipe_busy", "count"},
	{"sm.stall_barrier", "count"},
	{"mem.l1_hit_ratio", "ratio"},
	{"mem.l2_hit_ratio", "ratio"},
	{"mem.dram_mb", "MB"},
	{"digest.busy_s", "s"},
	{"service.sweep_wall_s", "s"},
	{"service.jobs_wall_s", "s"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p99_ms", "ms"},
	{"service.hit_samples", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_s", "s"},
	{"service.exec_s", "s"},
	{"service.executions", "count"},
	{"service.cache_hits", "count"},
	{"service.retries", "count"},
	{"service.heap_per_submit_kb", "KB"},
	{"fleet.task_wall_s", "s"},
	{"fleet.shard_busy_ratio", "ratio"},
	{"fleet.tasks_done", "count"},
	{"fleet.lease_grants", "count"},
	{"fleet.lease_renewals", "count"},
	{"obs.timeline_events", "count"},
	{"trace.self_sum_s", "s"},
	{"trace.overhead_s", "s"},
}

// endToEndMetrics reduces an untraced run to its metrics: the median
// set-up time over every worker started, and medians over the iterations.
func endToEndMetrics(setups []float64, samples []*sample) map[string]metricValue {
	var cpu, rss []float64
	for _, s := range samples {
		cpu = append(cpu, s.cpuS)
		rss = append(rss, s.rssMB)
	}
	v := map[string]float64{
		"setup_s":     median(setups),
		"run_cpu_s":   median(cpu),
		"peak_rss_mb": median(rss),
	}
	return valued(endToEnd, v)
}

// layerMetrics reduces a traced run to its per-layer metrics: the median
// of each over the traced processes; the untraced processes' median wall
// time and request latency; and the tracing overhead, the traced
// processes' median wall time minus the untraced ones'.
func layerMetrics(samples []*sample) map[string]metricValue {
	per := make(map[string][]float64)
	var tracedWall, plainWall, plainReqs []float64
	for _, s := range samples {
		if !s.traced {
			plainWall = append(plainWall, s.wallS)
			plainReqs = append(plainReqs, s.res.ReqMS...)
			continue
		}
		tracedWall = append(tracedWall, s.wallS)
		for _, m := range perLayer {
			per[m.name] = append(per[m.name], s.res.Layers[m.name])
		}
	}
	v := make(map[string]float64, len(perLayer))
	for name, xs := range per {
		v[name] = median(xs)
	}
	v["run_wall_s"], v["req_p50_ms"] = median(plainWall), median(plainReqs)
	if len(tracedWall) > 0 && len(plainWall) > 0 {
		v["trace.overhead_s"] = median(tracedWall) - median(plainWall)
	}
	return valued(perLayer, v)
}

func valued(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// report prints a human-readable summary with sample counts, including the
// wall times an untraced run does not gate on.
func report(w io.Writer, name string, setups []float64, samples []*sample, metrics map[string]metricValue) {
	var plainWall, tracedWall, reqs, hits []float64
	for i, s := range samples {
		fmt.Fprintf(w, "perfbench:   process %d: set-up %.4f s, wall %.3f s, cpu %.3f s, peak RSS %.0f MB, traced %v\n",
			i, s.setupS, s.wallS, s.cpuS, s.rssMB, s.traced)
		if s.traced {
			tracedWall = append(tracedWall, s.wallS)
			continue
		}
		plainWall = append(plainWall, s.wallS)
		reqs = append(reqs, s.res.ReqMS...)
		hits = append(hits, s.res.Series["hit_ms"]...)
	}
	fmt.Fprintf(w, "perfbench: %s: set-up median %.4f s over %d workers\n", name, median(setups), len(setups))
	fmt.Fprintf(w, "perfbench: %s: untraced run_wall_s median %.3f s over %d processes, req_p50_ms %.3f ms over %d requests\n",
		name, median(plainWall), len(plainWall), median(reqs), len(reqs))
	if len(tracedWall) > 0 {
		fmt.Fprintf(w, "perfbench: %s: traced run_wall_s median %.3f s over %d processes; span self times sum to %.3f s of it\n",
			name, median(tracedWall), len(tracedWall), metrics["trace.self_sum_s"].Value)
	}
	if len(hits) > 0 {
		h := summarize(hits)
		note := ""
		if !h.P99Real {
			note = " (fewer than 10 samples beyond p99)"
		}
		fmt.Fprintf(w, "perfbench: %s: cache hits p50 %.3f ms, p99 %.3f ms over %d samples%s\n", name, h.P50, h.P99, h.N, note)
		for _, k := range []string{"sweep_wall_s", "jobs_wall_s"} {
			var xs []float64
			for _, s := range samples {
				if !s.traced {
					xs = append(xs, s.res.Series[k]...)
				}
			}
			fmt.Fprintf(w, "perfbench: %s: %s median %.3f s over %d sessions\n", name, k, median(xs), len(xs))
		}
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "perfbench:   %-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
}
