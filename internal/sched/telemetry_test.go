package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"detournet/internal/core"
	"detournet/internal/scenario"
	"detournet/internal/telemetry"
)

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
