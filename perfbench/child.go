package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// iteration is what one child process reports: one set-up plus one
// timed phase on one input, its virtual outputs and gate violations,
// and, when traced, its per-layer values.
type iteration struct {
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Setup    float64 `json:"setup_s"`
	Wall     float64 `json:"wall_s"`      // timed phase
	Alloc    float64 `json:"alloc_bytes"` // heap allocated in the timed phase
	Live     float64 `json:"live_bytes"`  // live heap after the timed phase
	GCCPU    float64 `json:"gc_cpu_s"`    // GC cpu time in the timed phase
	TotCPU   float64 `json:"total_cpu_s"` // available cpu time in the timed phase
	GCCycles float64 `json:"gc_cycles"`
	Digest   string  `json:"digest"`

	Jobs     int       `json:"jobs"`
	Failed   int       `json:"failed"`
	VS       []float64 `json:"vs"`
	Bytes    float64   `json:"bytes"`
	VSec     float64   `json:"vsec"`
	Resent   float64   `json:"resent"`
	Events   uint64    `json:"events"`
	Errs     []string  `json:"errs,omitempty"`
	Failures []string  `json:"failures,omitempty"`

	Layers    map[string]float64 `json:"layers,omitempty"`     // span and counter metrics
	CPULayers map[string]float64 `json:"cpu_layers,omitempty"` // profiled cpu ns per layer

	// SetupReps are set-up times of the same input, repeated by an
	// untraced child after its timed phase.
	SetupReps []float64 `json:"setup_reps,omitempty"`
}

// setupReps is how many set-ups an untraced child repeats after its
// timed phase, so that setup_s is a median over many samples.
const setupReps = 3

var rtMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(rtMetrics))
	for i, n := range rtMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, m := range s {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = m.Value.Float64()
		}
	}
	return out
}

// iterate sets up and runs one iteration in this process. Traced, it
// records spans, takes a CPU profile of the timed phase and writes the
// spans to spansPath when that is set.
func iterate(wl workloadDef, seed int64, traced bool, spansPath string) (*iteration, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	runtime.GC()
	t0 := time.Now()
	inst := wl.setup(seed, tr)
	it := &iteration{Seed: seed, Traced: traced, Setup: time.Since(t0).Seconds()}

	runtime.GC()
	m0 := readRuntime()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	t1 := time.Now()
	o := inst.run()
	it.Wall = time.Since(t1).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.GC()
	m1 := readRuntime()
	runtime.KeepAlive(inst)

	it.Alloc = m1[0] - m0[0]
	it.Live = m1[1]
	it.GCCPU = m1[2] - m0[2]
	it.TotCPU = m1[3] - m0[3]
	it.GCCycles = m1[4] - m0[4]
	it.Digest = o.digest()
	it.Jobs, it.Failed, it.VS = o.jobs, o.failed, o.vs
	it.Bytes, it.VSec, it.Resent, it.Events = o.bytes, o.vsec, o.resent, o.events
	it.Errs, it.Failures = o.errs, o.failures
	if !traced {
		// The measurements are taken; the worlds these set-ups build
		// stay parked in this process, which runs nothing else.
		for r := 0; r < setupReps; r++ {
			runtime.GC()
			t0 := time.Now()
			wl.setup(seed, nil)
			it.SetupReps = append(it.SetupReps, time.Since(t0).Seconds())
		}
		return it, nil
	}
	it.Layers = layerValues(o, tr)
	it.CPULayers = map[string]float64{}
	if err := addLayerNanos(it.CPULayers, prof.Bytes()); err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := tr.dump(spansPath); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
	}
	return it, nil
}

// layerValues derives the span- and counter-based per-layer metrics
// of one traced iteration.
func layerValues(o *outcome, tr *tracer) map[string]float64 {
	ss := tr.stats()
	get := func(name string) *spanStats {
		if s := ss[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t
	}
	jobs := float64(o.jobs)
	sub, drain, plan, exec, pre := get(spanSubmit), get(spanDrain), get(spanPlan), get(spanExec), get(spanPrecheck)
	app, swp, rep, grid := get(spanDevAppend), get(spanDevSwap), get(spanReplay), get(spanGrid)
	v := map[string]float64{
		"sched.submit_us_p50":        quantile(sub.durs, 0.5) * 1e6,
		"sched.submit_us_p99":        quantile(sub.durs, 0.99) * 1e6,
		"sched.self_s":               drain.self,
		"sched.cache_hit_rate":       ratio(float64(o.cacheHits), float64(o.cacheHits+o.cacheMisses)),
		"sched.retries":              ratio(float64(o.retries), jobs),
		"sched.reroutes":             ratio(float64(o.reroutes), jobs),
		"sched.hedges":               ratio(float64(o.hedges), jobs),
		"sched.fallbacks":            ratio(float64(o.fallbks), jobs),
		"plan.calls":                 float64(len(plan.durs)),
		"plan.busy_s":                sum(plan.durs),
		"plan.ms_p50":                quantile(plan.durs, 0.5) * 1e3,
		"plan.ms_p99":                quantile(plan.durs, 0.99) * 1e3,
		"exec.calls":                 float64(len(exec.durs)),
		"exec.self_s":                exec.self + pre.self,
		"exec.ms_p50":                quantile(exec.durs, 0.5) * 1e3,
		"exec.ms_p99":                quantile(exec.durs, 0.99) * 1e3,
		"exec.prechecks":             float64(len(pre.durs)),
		"journal.appends":            float64(o.jAppends),
		"journal.compactions":        float64(o.jCompactions),
		"journal.bytes_written":      float64(o.devBytes),
		"journal.device_s":           sum(app.durs) + sum(swp.durs),
		"journal.replay_ms":          median(rep.durs) * 1e3,
		"journal.replay_records":     float64(o.replayRecords),
		"simclock.events":            float64(o.events),
		"grid.pair_s_p50":            median(grid.durs),
		"grid.pair_s_max":            quantile(grid.durs, 1),
		"jobs.failed_frac":           ratio(float64(o.failed), jobs),
		"jobs.resent_mb":             o.resent / 1e6,
		"jobs.vs_samples":            float64(len(o.vs)),
		"cloudsim.max_commits":       float64(o.maxCommits),
		"cloudsim.dup_suppressed":    float64(o.dupSuppressed),
		"cloudsim.hedge_dup_commits": float64(o.hedgeDupCommits),
	}
	return v
}
