package sched

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"detournet/internal/core"
	"detournet/internal/scenario"
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

// counterValue digs a counter/gauge child out of a snapshot by its
// label values (none for an unlabeled family); a child never used
// reads 0.
func counterValue(t *testing.T, snap telemetry.Snapshot, name string, labels ...string) float64 {
	t.Helper()
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if fmt.Sprint(m.LabelValues) == fmt.Sprint(labels) {
				return m.Value
			}
		}
		return 0
	}
	t.Fatalf("family %q not in snapshot", name)
	return 0
}

// checkMetricsMatchStats asserts that every exported counter row of the
// decisions table reads the same in the registry as in Stats.
func checkMetricsMatchStats(t *testing.T, snap telemetry.Snapshot, st Stats) {
	t.Helper()
	for k, row := range decisions {
		if row.metric == "" {
			continue
		}
		if row.stat == nil {
			t.Errorf("decision kind %d exports %s but has no Stats field", k, row.metric)
			continue
		}
		var labels []string
		if row.reason != "" {
			labels = []string{row.reason}
		}
		if got, want := counterValue(t, snap, row.metric, labels...), *row.stat(&st); got != float64(want) {
			t.Errorf("%s%v = %g, stats say %d", row.metric, labels, got, want)
		}
	}
}

// TestTelemetryMetricsMatchStats: the registry and Stats are folded by
// the same note calls — every exported counter must agree.
func TestTelemetryMetricsMatchStats(t *testing.T) {
	o := RunTelemetry(TelemetryOptions{Seed: 7})
	checkMetricsMatchStats(t, o.Snapshot, o.Stats)
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

// guardDrain is a small fixed fleet for the overhead guard; instant
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
// journaling, virtual transfers) is real. Bare and instrumented rounds
// alternate in pairs, each pair flipping which arm runs first, and the
// guard compares the median paired difference against the median bare
// round: host drift (other test binaries sharing the CPUs under a
// parallel `go test ./...`) lands on both arms of a pair instead of on
// one whole arm. It re-measures before failing so a preempted run
// can't flake the suite. Skipped under the race detector, whose
// uniform slowdown distorts timing. The pure-dispatch cost per job is
// tracked separately by BenchmarkDrainBare/BenchmarkDrainInstrumented.
func TestTelemetryOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("overhead guard is a timing test; race instrumentation distorts it")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	// The drain is sequential (one worker on a cooperatively scheduled
	// engine), so one P measures it without cross-core wake-up jitter,
	// and the instrumented arm's extra GC work counts in full instead of
	// hiding on an idle core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const pairs = 100
	round := func(bare bool) time.Duration {
		start := time.Now()
		RunTelemetry(TelemetryOptions{Seed: 7, NoInstrument: bare})
		return time.Since(start)
	}
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return ds[len(ds)/2]
	}
	for attempt := 0; attempt < 3; attempt++ {
		var bare, diff []time.Duration
		for i := 0; i < pairs; i++ {
			runtime.GC() // no pair pays for the previous one's garbage
			var b, inst time.Duration
			if i%2 == 0 {
				b = round(true)
				inst = round(false)
			} else {
				inst = round(false)
				b = round(true)
			}
			bare = append(bare, b)
			diff = append(diff, inst-b)
		}
		base, over := median(bare), median(diff)
		frac := float64(over) / float64(base)
		t.Logf("attempt %d: bare median %v, paired overhead median %v (%.2f%%)", attempt, base, over, 100*frac)
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

// TestFailoverOffDetourCountsFallback: a route-down failover off a dead
// detour drops the job to direct, so it is both a failover and a
// fallback — in Stats and in the registry alike.
func TestFailoverOffDetourCountsFallback(t *testing.T) {
	exec := ExecutorFunc(func(j Job, r core.Route) (float64, error) {
		if r.Kind == core.Detour {
			return 0, RouteDown(errors.New("detour down"))
		}
		return 1, nil
	})
	reg := telemetry.NewRegistry()
	s := New(Config{
		Workers: 1, Executor: exec, Planner: &staticPlanner{route: core.ViaRoute(scenario.UMich)},
		Sleep: noSleep, Telemetry: reg,
	})
	s.Start()
	if err := s.Submit(Job{Tenant: "t", Client: scenario.UBC, Provider: scenario.GoogleDrive, Name: "f.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	s.Close()
	st, snap := s.Stats(), reg.Snapshot()
	if st.Done != 1 {
		t.Fatalf("done = %d, want 1", st.Done)
	}
	for _, c := range []struct {
		name  string
		stat  int64
		value float64
	}{
		{"Fallbacks", st.Fallbacks, counterValue(t, snap, "sched_fallbacks_total")},
		{"Failovers", st.Failovers, counterValue(t, snap, "sched_failovers_total")},
	} {
		if c.stat != 1 || c.value != 1 {
			t.Errorf("%s: stats %d, registry %g; want 1 and 1", c.name, c.stat, c.value)
		}
	}
}

// mixedExec fails each job by the class its name starts with: 'd' jobs
// find every detour down (route-down failover), 't' jobs hit one
// transient reset, 'u' jobs get untyped errors on detours (fallback
// after detourFailLimit), and 'r' jobs reroute inside their attempt.
type mixedExec struct {
	mu    sync.Mutex
	tries map[string]int
}

func (e *mixedExec) Execute(j Job, r core.Route) (float64, error) {
	return e.ExecuteResumable(j, r, nil)
}

func (e *mixedExec) ExecuteResumable(j Job, r core.Route, ck *core.Checkpoint) (float64, error) {
	sec, _, _, _, err := e.ExecuteRerouting(j, r, ck, 0)
	return sec, err
}

func (e *mixedExec) ExecuteRerouting(j Job, r core.Route, _ *core.Checkpoint, _ float64) (float64, core.Route, int, float64, error) {
	e.mu.Lock()
	e.tries[j.Name]++
	n := e.tries[j.Name]
	e.mu.Unlock()
	runtime.Gosched()
	switch j.Name[0] {
	case 'd':
		if r.Kind == core.Detour {
			return 0, r, 0, 0, RouteDown(errors.New("detour down"))
		}
	case 't':
		if n == 1 {
			return 0, r, 0, 0, Transient(errors.New("connection reset"))
		}
	case 'u':
		if r.Kind == core.Detour {
			return 0, r, 0, 0, errors.New("dtn hiccup")
		}
	case 'r':
		return 1, core.DirectRoute, 2, 0.5, nil
	}
	return 1, r, 0, 0, nil
}

// TestDecisionRecordConcurrentFleet drives a mixed-failure fleet
// through eight really concurrent workers with the registry and the
// flight recorder attached: the single-lock fold must keep every
// exported counter equal to its Stats field, account for every job
// exactly once, and keep per-job reroutes summing to the fleet total.
func TestDecisionRecordConcurrentFleet(t *testing.T) {
	reg := telemetry.NewRegistry()
	var results collector
	s := New(Config{
		Workers: 8, Executor: &mixedExec{tries: map[string]int{}},
		Planner:     &staticPlanner{route: core.ViaRoute(scenario.UMich)},
		ProviderCap: -1, DTNCap: -1, Reroute: true,
		Now: func() float64 { return 100 }, Sleep: noSleep,
		Telemetry: reg, Recorder: telemetry.NewFlightRecorder(nil, 16, 8),
		OnResult: results.add,
	})
	s.Start()
	var wg sync.WaitGroup
	for g, class := range "dturx" {
		wg.Add(1)
		go func(g int, class rune) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				// A provider per class keeps one class's breakers and
				// quarantines off the others' routes.
				j := Job{
					Tenant: fmt.Sprintf("t%d", g), Client: scenario.UBC,
					Provider: fmt.Sprintf("p-%c", class),
					Name:     fmt.Sprintf("%c-%03d.bin", class, i), Size: 1e6,
				}
				if class == 'x' {
					j.Deadline = 50 // already past: expires
				}
				if err := s.Submit(j); err != nil {
					t.Error(err)
				}
			}
		}(g, class)
	}
	wg.Wait()
	s.Drain()
	s.Close()
	st := s.Stats()
	checkMetricsMatchStats(t, reg.Snapshot(), st)
	if sum := st.Done + st.Failed + st.Expired + st.Shed; st.Submitted != sum {
		t.Errorf("submitted %d != done %d + failed %d + expired %d + shed %d",
			st.Submitted, st.Done, st.Failed, st.Expired, st.Shed)
	}
	reroutes := 0
	for _, r := range results.all() {
		reroutes += r.Reroutes
	}
	if int64(reroutes) != st.Reroutes {
		t.Errorf("per-job reroutes sum to %d, stats say %d", reroutes, st.Reroutes)
	}
	if st.Failovers == 0 || st.Fallbacks <= st.Failovers || st.Retries == 0 ||
		st.Expired == 0 || st.Reroutes == 0 || st.Parks == 0 {
		t.Errorf("fleet missed a failure class: %s failovers=%d reroutes=%d parks=%d",
			st, st.Failovers, st.Reroutes, st.Parks)
	}
}
