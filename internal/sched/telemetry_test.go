package sched

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"detournet/internal/core"
	"detournet/internal/telemetry"
)

// TestTelemetryRunDeterministic: same seed ⇒ byte-identical
// Prometheus, JSON, and CSV dumps — the observability plane inherits
// the repo's determinism contract. The report text's determinism is
// TestReplaysDeterministic/telemetry.
func TestTelemetryRunDeterministic(t *testing.T) {
	render := func() (prom, js, csv string) {
		o := RunTelemetry(TelemetryOptions{Seed: 7})
		var p, j, c bytes.Buffer
		if err := o.Snapshot.WritePrometheus(&p); err != nil {
			t.Fatal(err)
		}
		if err := o.Snapshot.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := o.Snapshot.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return p.String(), j.String(), c.String()
	}
	p1, j1, c1 := render()
	p2, j2, c2 := render()
	if p1 != p2 {
		t.Error("same-seed prometheus dumps differ")
	}
	if j1 != j2 {
		t.Error("same-seed JSON dumps differ")
	}
	if c1 != c2 {
		t.Error("same-seed CSV dumps differ")
	}
}

// counterValue digs a no-label counter/gauge out of a snapshot.
func counterValue(t *testing.T, snap telemetry.Snapshot, name string) float64 {
	t.Helper()
	for _, f := range snap.Families {
		if f.Name == name {
			if len(f.Metrics) == 0 {
				return 0
			}
			return f.Metrics[0].Value
		}
	}
	t.Fatalf("family %q not in snapshot", name)
	return 0
}

// TestTelemetryMetricsMatchStats: the registry is a second, independent
// account of the run — it must agree with the scheduler's own counters.
func TestTelemetryMetricsMatchStats(t *testing.T) {
	o := RunTelemetry(TelemetryOptions{Seed: 7})
	st := o.Stats
	checks := []struct {
		family string
		want   int64
	}{
		{"sched_jobs_submitted_total", st.Submitted},
		{"sched_jobs_done_total", st.Done},
		{"sched_jobs_failed_total", st.Failed},
		{"sched_retries_total", st.Retries},
		{"sched_reroutes_total", st.Reroutes},
		{"sched_parks_total", st.Parks},
	}
	for _, c := range checks {
		if got := counterValue(t, o.Snapshot, c.family); got != float64(c.want) {
			t.Errorf("%s = %g, stats say %d", c.family, got, c.want)
		}
	}
	// Route byte totals must cover exactly the delivered bytes.
	var routeBytes, delivered float64
	for _, f := range o.Snapshot.Families {
		if f.Name == "sched_route_bytes_total" {
			for _, m := range f.Metrics {
				routeBytes += m.Value
			}
		}
	}
	for _, r := range o.Results {
		if r.Err == nil {
			delivered += r.Job.Size
		}
	}
	if routeBytes != delivered {
		t.Errorf("route bytes %g != delivered %g", routeBytes, delivered)
	}
	if o.Samples == 0 || len(o.Series) == 0 {
		t.Fatalf("sampler recorded nothing: %d samples, %d series", o.Samples, len(o.Series))
	}
	for _, ss := range o.Series {
		if len(ss.Values) != o.Samples && ss.Dropped == 0 {
			t.Errorf("series %s has %d points, want %d", ss.Name, len(ss.Values), o.Samples)
		}
	}
}

// TestTelemetryFlightRecorderNamesDecisions: a failed transfer's trace
// must name the control-plane decisions hop by hop — election, attempts,
// parking/rerouting, and the failure classification.
func TestTelemetryFlightRecorderNamesDecisions(t *testing.T) {
	o := RunTelemetry(TelemetryOptions{Seed: 7})
	if o.Stats.Failed == 0 {
		t.Fatal("the thin-stack storm replay should fail at least one job")
	}
	var failed *telemetry.JobTrace
	for i := range o.Traces {
		if o.Traces[i].Failed {
			failed = &o.Traces[i]
			break
		}
	}
	if failed == nil {
		t.Fatal("no failed trace retained")
	}
	kinds := map[string]int{}
	for _, ev := range failed.Events {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"job.elect", "job.attempt", "job.fail", "job.failed"} {
		if kinds[want] == 0 {
			t.Errorf("failed trace %s missing %q events (have %v)", failed.Job, want, kinds)
		}
	}
	if kinds["job.reroute"] == 0 && kinds["job.park"] == 0 {
		t.Errorf("failed trace %s shows neither a reroute nor a park (have %v)", failed.Job, kinds)
	}
	// Successes are truncated: counted, but no decision events retained.
	for _, tr := range o.Traces {
		if !tr.Failed && len(tr.Events) != 0 {
			t.Errorf("success trace %s kept %d events, want 0", tr.Job, len(tr.Events))
		}
	}
}

// drainTrace is a small fixed fleet for the overhead guard; instant
// executor, fixed planner — pure control-plane work.
func guardDrain(jobs int, reg *telemetry.Registry, rec *telemetry.FlightRecorder) time.Duration {
	exec := ExecutorFunc(func(j Job, r core.Route) (float64, error) { return 0, nil })
	plan := PlannerFunc(func(client, provider string, size float64) (core.Route, []core.Route, error) {
		return core.DirectRoute, []core.Route{core.DirectRoute}, nil
	})
	s := New(Config{
		Workers: 1, Executor: exec, Planner: plan,
		ProviderCap: -1, DTNCap: -1,
		Telemetry: reg, Recorder: rec,
	})
	s.Start()
	start := time.Now()
	for i := 0; i < jobs; i++ {
		if err := s.Submit(Job{
			Tenant: "t", Client: "c", Provider: "p",
			Name: fmt.Sprintf("g-%05d", i), Size: 1e6,
		}); err != nil {
			panic(err)
		}
	}
	s.Drain()
	el := time.Since(start)
	s.Close()
	return el
}

// TestTelemetryNoObserverEffect: attaching the telemetry plane must not
// change what the scheduler does — the instrumented and bare replays of
// the same storm deliver identical results on the virtual timeline.
func TestTelemetryNoObserverEffect(t *testing.T) {
	inst := RunTelemetry(TelemetryOptions{Seed: 7})
	bare := RunTelemetry(TelemetryOptions{Seed: 7, NoInstrument: true})
	if len(bare.Results) != len(inst.Results) {
		t.Fatalf("result counts differ: bare %d, instrumented %d", len(bare.Results), len(inst.Results))
	}
	for i := range inst.Results {
		a, b := inst.Results[i], bare.Results[i]
		if a.Job.Name != b.Job.Name || (a.Err == nil) != (b.Err == nil) ||
			a.Seconds != b.Seconds || a.Attempts != b.Attempts || a.Route != b.Route {
			t.Fatalf("result %d diverged: instrumented %+v, bare %+v", i, a, b)
		}
	}
	if inst.VirtualSeconds != bare.VirtualSeconds {
		t.Errorf("virtual spans differ: %g vs %g", inst.VirtualSeconds, bare.VirtualSeconds)
	}
	if len(bare.Series) != 0 || bare.Snapshot.Families != nil || bare.Traces != nil {
		t.Errorf("bare run leaked observability state: %d series", len(bare.Series))
	}
}

// TestTelemetryOverheadGuard asserts the telemetry plane costs under 5%
// of wall time on the reference storm drain — the representative
// scheduler workload, where per-job control-plane work (planning,
// journaling, virtual transfers) is real. Medians over rounds damp
// machine noise; the guard re-measures before failing so a preempted
// round can't flake the suite. Skipped under the race detector, whose
// uniform slowdown distorts timing. The pure-dispatch cost per job is
// tracked separately by BenchmarkDrainBare/BenchmarkDrainInstrumented.
func TestTelemetryOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("overhead guard is a timing test; race instrumentation distorts it")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	const rounds = 5
	median := func(bare bool) time.Duration {
		var ds []time.Duration
		for i := 0; i < rounds; i++ {
			start := time.Now()
			RunTelemetry(TelemetryOptions{Seed: 7, NoInstrument: bare})
			ds = append(ds, time.Since(start))
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return ds[len(ds)/2]
	}
	for attempt := 0; attempt < 3; attempt++ {
		base := median(true)
		inst := median(false)
		frac := float64(inst-base) / float64(base)
		t.Logf("attempt %d: bare %v, instrumented %v, overhead %.2f%%", attempt, base, inst, 100*frac)
		if frac < 0.05 {
			return
		}
	}
	t.Error("telemetry is consistently >5% of the reference drain's wall time")
}

// BenchmarkDrainBare / BenchmarkDrainInstrumented expose the same
// comparison as reportable numbers for `make bench`.
func BenchmarkDrainBare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guardDrain(2000, nil, nil)
	}
}

func BenchmarkDrainInstrumented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guardDrain(2000, telemetry.NewRegistry(), telemetry.NewFlightRecorder(nil, 32, 4))
	}
}
