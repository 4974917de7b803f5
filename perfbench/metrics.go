package main

import (
	"fmt"
	"sort"
	"time"

	"distiq/internal/engine"
	"distiq/internal/trace"
)

// endToEndUnits and layerUnits list every metric the benchmark prints, as
// BENCHMARK.json declares them.
var endToEndUnits = map[string]string{
	"cpu_s":            "s",
	"points_per_cpu_s": "1/s",
	"sweep_p50_ms":     "ms",
	"sweep_p90_ms":     "ms",
	"ok_frac":          "ratio",
	"mem_peak_mb":      "MB",
	"setup_s":          "s",
}

var layerUnits = func() map[string]string {
	m := map[string]string{
		"trace.next_ns":              "ns",
		"trace.cache_hit_ratio":      "ratio",
		"trace.forks":                "count",
		"pipeline.self_ns_per_cycle": "ns",
		"pipeline.cycles":            "count",
		"pipeline.insts":             "count",
		"core.share":                 "ratio",
		"engine.requested":           "count",
		"engine.simulated":           "count",
		"engine.memory_hits":         "count",
		"engine.disk_hits":           "count",
		"engine.shared":              "count",
		"engine.batched":             "count",
		"engine.hit_ratio":           "ratio",
		"engine.simulate_ms_p50":     "ms",
		"engine.store_get_us":        "us",
		"engine.store_put_us":        "us",
		"client.us_per_point":        "us",
		"scenario.expand_us":         "us",
		"sim.tables_ms":              "ms",
		"serve.submit_ms":            "ms",
		"serve.first_line_ms":        "ms",
		"serve.line_us":              "us",
		"serve.done_ms":              "ms",
		"serve.http_p50_ms":          "ms",
		"tracing.untraced_s":         "s",
		"tracing.traced_s":           "s",
		"tracing.overhead_pct":       "%",
	}
	for _, cfg := range kernelConfigs {
		m["pipeline.ns_per_inst."+cfg.Name] = "ns"
	}
	for _, k := range kindNames {
		for _, op := range opNames {
			m["core."+op+"_ns."+k] = "ns"
		}
	}
	return m
}()

// zeroMetrics reports layers the workload's path does not reach as 0.
func zeroMetrics(rep *report, names ...string) {
	for _, n := range names {
		rep.set(n, 0, layerUnits[n])
	}
}

// checkMetricSet fails the run unless it printed exactly the metrics its
// mode promises: every end-to-end metric, or every per-layer metric.
func checkMetricSet(rep *report, traced bool) {
	want := endToEndUnits
	if traced {
		want = layerUnits
	}
	var missing, extra []string
	for n := range want {
		if _, ok := rep.metrics[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n, m := range rep.metrics {
		if u, ok := want[n]; !ok || u != m.Unit {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		rep.fail("metric set: missing %v, unexpected or wrong unit %v", missing, extra)
	}
}

// engineMetrics reports the engine's resolution counters and the median
// of its simulate-duration histogram from a metrics exposition.
func engineMetrics(rep *report, st engine.Stats, expo []byte) error {
	rep.set("engine.requested", float64(st.Requested), "count")
	rep.set("engine.simulated", float64(st.Simulated), "count")
	rep.set("engine.memory_hits", float64(st.MemoryHits), "count")
	rep.set("engine.disk_hits", float64(st.DiskHits), "count")
	rep.set("engine.shared", float64(st.Shared), "count")
	rep.set("engine.batched", float64(st.Batched), "count")
	hit := 0.0
	if st.Requested > 0 {
		hit = float64(st.MemoryHits+st.DiskHits+st.Shared) / float64(st.Requested)
	}
	rep.set("engine.hit_ratio", hit, "ratio")
	p50, err := histQuantile(expo, "distiq_engine_simulate_duration_seconds", "", 0.5)
	if err != nil {
		return fmt.Errorf("simulate histogram: %w", err)
	}
	rep.set("engine.simulate_ms_p50", p50*1e3, "ms")
	rep.info["engine"] = st
	return nil
}

// traceCacheMetrics reports the shared trace cache's lookup hit ratio and
// the readers that outran its recording cap.
func traceCacheMetrics(rep *report, tc trace.CacheStats) {
	ratio := 0.0
	if n := tc.Hits + tc.Misses; n > 0 {
		ratio = float64(tc.Hits) / float64(n)
	}
	rep.set("trace.cache_hit_ratio", ratio, "ratio")
	rep.set("trace.forks", float64(tc.Forks), "count")
	rep.info["trace_cache"] = tc
}

// overheadMetrics reports the traced pass's wall time against the
// untraced pass's over the same work.
func overheadMetrics(rep *report, untraced, traced time.Duration) {
	rep.set("tracing.untraced_s", untraced.Seconds(), "s")
	rep.set("tracing.traced_s", traced.Seconds(), "s")
	rep.set("tracing.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
}
