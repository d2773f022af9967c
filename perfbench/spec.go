package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricSpec names one reported metric, as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEndSpec = []metricSpec{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"goodput_mbps", "MB/s", "higher"},
	{"job_vs_p50", "s", "lower"},
	{"job_vs_p99", "s", "lower"},
}

var perLayerSpec = func() []metricSpec {
	s := []metricSpec{
		{"sched.submit_us_p50", "us", "lower"},
		{"sched.submit_us_p99", "us", "lower"},
		{"sched.self_s", "s", "lower"},
		{"sched.cache_hit_rate", "ratio", "higher"},
		{"sched.retries", "1/job", "lower"},
		{"sched.reroutes", "1/job", "lower"},
		{"sched.hedges", "1/job", "lower"},
		{"sched.fallbacks", "1/job", "lower"},
		{"plan.calls", "count", "lower"},
		{"plan.busy_s", "s", "lower"},
		{"plan.ms_p50", "ms", "lower"},
		{"plan.ms_p99", "ms", "lower"},
		{"exec.calls", "count", "lower"},
		{"exec.self_s", "s", "lower"},
		{"exec.ms_p50", "ms", "lower"},
		{"exec.ms_p99", "ms", "lower"},
		{"exec.prechecks", "count", "lower"},
		{"journal.appends", "count", "lower"},
		{"journal.compactions", "count", "lower"},
		{"journal.bytes_written", "bytes", "lower"},
		{"journal.device_s", "s", "lower"},
		{"journal.replay_ms", "ms", "lower"},
		{"journal.replay_records", "count", "lower"},
		{"simclock.events", "count", "lower"},
		{"simclock.events_per_s", "1/s", "higher"},
		{"sim.vsec_per_s", "vs/s", "higher"},
		{"grid.pair_s_p50", "s", "lower"},
		{"grid.pair_s_max", "s", "lower"},
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.alloc_kb_per_job", "KB/job", "lower"},
	}
	for _, l := range cpuLayers {
		s = append(s, metricSpec{"cpu." + l, "ratio", "lower"})
	}
	return append(s,
		metricSpec{"cloudsim.max_commits", "count", "lower"},
		metricSpec{"cloudsim.dup_suppressed", "count", "lower"},
		metricSpec{"cloudsim.hedge_dup_commits", "count", "lower"},
		metricSpec{"jobs.failed_frac", "ratio", "lower"},
		metricSpec{"jobs.resent_mb", "MB", "lower"},
		metricSpec{"jobs.vs_samples", "count", "higher"},
		metricSpec{"trace.overhead_s", "s", "lower"},
		metricSpec{"trace.overhead_frac", "ratio", "lower"},
	)
}()

func specOf(specs []metricSpec, name string) metricSpec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	panic("perfbench: no metric " + name)
}

// checkSpecFile verifies that BENCHMARK.json lists exactly the metrics
// this program reports, with the same units and directions, and names
// exactly its workloads.
func checkSpecFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	same := func(kind string, got, want []metricSpec) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("%s[%d] is %+v, the program reports %+v", kind, i, got[i], want[i])
			}
		}
		return nil
	}
	if err := same("end_to_end", f.EndToEnd, endToEndSpec); err != nil {
		return err
	}
	if err := same("per_layer", f.PerLayer, perLayerSpec); err != nil {
		return err
	}
	names := map[string]bool{}
	for _, w := range f.Workloads {
		names[w.Name] = true
	}
	for _, w := range workloads {
		if !names[w.name] {
			return fmt.Errorf("workload %s missing", w.name)
		}
		delete(names, w.name)
	}
	if len(names) > 0 {
		return fmt.Errorf("unknown workloads %v", sortedKeys(names))
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
