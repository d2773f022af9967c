// Churn replay: the reconvergence-storm harness behind `make churn`,
// `detourd -replay churn`, and the churn acceptance tests. One RunChurn
// call builds a world with dynamic (staged-convergence) routing, arms
// the faults.ChurnSchedule storm, and drives a fixed fleet of transfers
// through the scheduler — either with the full churn stack
// (checkpointed resume, make-before-break rerouting with parking,
// push-based route invalidation off the bus) or as the ablated control
// (one attempt, no recovery, TTL-only caching).
//
// The convergence delays come from the world's seeded RNG; the rest of
// the determinism contract is the harness's (see replay.go), and `make
// check` verifies it.
package sched

import (
	"fmt"
	"io"
	"sort"

	"detournet/internal/bgppol"
	"detournet/internal/core"
	"detournet/internal/faults"
	"detournet/internal/scenario"
)

// ChurnOutcome is one replay's complete, deterministic result set.
type ChurnOutcome struct {
	Replay
	// Events is the routing-plane event log (withdraws/announces with
	// their convergence horizons).
	Events []bgppol.Event
}

// Affected lists the jobs this run shows the storm touched: a failure,
// a retry, a reroute, parking, or re-sent bytes.
func (o ChurnOutcome) Affected() map[string]bool {
	out := make(map[string]bool)
	for _, r := range o.Results {
		if r.Err != nil || r.Attempts > 1 || r.Reroutes > 0 || r.Parked > 0 || r.Rewritten > 0 {
			out[r.Job.Name] = true
		}
	}
	return out
}

// RunChurn replays the storm once over a fixed 36-job fleet.
func RunChurn(o ReplayOptions) ChurnOutcome {
	w := scenario.Build(o.Seed, scenario.WithDynamicRouting())
	inj := faults.NewInjector(w, o.Seed, faults.ChurnSchedule()...)
	exec := NewSimExecutor(w)
	defer exec.Close()

	cfg := Config{
		Workers:  1, // sequential ⇒ deterministic
		Executor: exec, Planner: exec,
		Now:   exec.VirtualNow,
		Sleep: exec.SleepVirtual,
	}
	var attach func(*Scheduler)
	if o.Stack {
		cfg.MaxAttempts = 5
		cfg.Reroute = true
		cfg.ParkBudget = 120
		// Push-based invalidation: routing events reach the route cache
		// the instant they happen instead of waiting out TTLs.
		attach = func(s *Scheduler) {
			w.RouteBus.Subscribe(func(ev bgppol.Event) { s.RouteEvent(RouteEventOf(ev)) })
		}
	} else {
		cfg.MaxAttempts = 1
		// No checkpointed resume: the bare Execute hides the executor's
		// resumable (and every other optional) interface.
		cfg.Executor = ExecutorFunc(exec.Execute)
	}
	// A fixed two-site fleet on the storm's target provider: UBC rides
	// the pinned PacificWave path that flips away and back, UAlberta
	// sits behind the Cybera~CANARIE session that gets cut entirely.
	clients := []string{scenario.UBC, scenario.UAlberta}
	jobs := make([]Job, 36)
	for i := range jobs {
		jobs[i] = Job{
			Tenant: "churn", Client: clients[i%len(clients)],
			Provider: scenario.GoogleDrive,
			Name:     fmt.Sprintf("churn-%03d.bin", i), Size: replayJobSize,
		}
	}
	results, st := runFleet(cfg, jobs, attach)
	out := ChurnOutcome{Replay: Replay{
		Results: results, Stats: st,
		Transitions:    inj.Transitions(),
		VirtualSeconds: exec.VirtualNow(),
	}}
	if w.Routing != nil {
		out.Events = w.Routing.Events()
	}
	return out
}

// ChurnVerdict is the acceptance arithmetic over a control/stack pair,
// computed on the union of jobs either run shows the storm touched.
type ChurnVerdict struct {
	// Affected is how many distinct jobs the storm touched across the
	// two runs.
	Affected int
	// ControlFailed of those failed in the control run; StackSurvived
	// and StackFailed split them for the stack run.
	ControlFailed int
	StackSurvived int
	StackFailed   int
	// ResentBytes is the stack run's total re-sent (rewritten) bytes;
	// ResentBudget is one checkpoint chunk per reroute, failover, and
	// retry — the bound make-before-break promises.
	ResentBytes  float64
	ResentBudget float64
}

// ControlFailRate and StackSurvivalRate are fractions of Affected.
func (v ChurnVerdict) ControlFailRate() float64 {
	if v.Affected == 0 {
		return 0
	}
	return float64(v.ControlFailed) / float64(v.Affected)
}

func (v ChurnVerdict) StackSurvivalRate() float64 {
	if v.Affected == 0 {
		return 0
	}
	return float64(v.StackSurvived) / float64(v.Affected)
}

// CompareChurn scores a control run against a stack run of the same
// fleet and seed.
func CompareChurn(control, stack ChurnOutcome) ChurnVerdict {
	aff := control.Affected()
	for name := range stack.Affected() {
		aff[name] = true
	}
	v := ChurnVerdict{Affected: len(aff)}
	for _, r := range control.Results {
		if aff[r.Job.Name] && r.Err != nil {
			v.ControlFailed++
		}
	}
	for _, r := range stack.Results {
		if !aff[r.Job.Name] {
			continue
		}
		if r.Err == nil {
			v.StackSurvived++
		} else {
			v.StackFailed++
		}
	}
	v.ResentBytes = stack.Stats.BytesRewritten
	v.ResentBudget = core.DefaultResumeChunk *
		float64(stack.Stats.Reroutes+stack.Stats.Retries+stack.Stats.Failovers)
	return v
}

// WriteChurnReport renders the deterministic with/without report
// `detourd -replay churn` prints.
func WriteChurnReport(out io.Writer, control, stack ChurnOutcome) {
	line := func(label string, o ChurnOutcome) {
		st := o.Stats
		fmt.Fprintf(out, "%-8s %3d done %3d failed | %d reroutes %d parks %.0fs parked | %d retries %d failovers | %.1f MB resumed %.1f MB re-sent | %.0f virtual s\n",
			label, st.Done, st.Failed, st.Reroutes, st.Parks, st.ParkSeconds,
			st.Retries, st.Failovers, st.BytesResumed/1e6, st.BytesRewritten/1e6,
			o.VirtualSeconds)
	}
	fmt.Fprintf(out, "Churn: %d transfers vs a reconvergence storm (%d routing events, %d fault transitions)\n",
		len(stack.Results), len(stack.Events), len(stack.Transitions))
	line("control", control)
	line("stack", stack)

	v := CompareChurn(control, stack)
	fmt.Fprintf(out, "storm touched %d transfers: control failed %d (%.0f%%), stack survived %d (%.0f%%)\n",
		v.Affected, v.ControlFailed, 100*v.ControlFailRate(),
		v.StackSurvived, 100*v.StackSurvivalRate())
	fmt.Fprintf(out, "re-sent bytes %.1f MB within the make-before-break bound %.1f MB (one %d MB chunk per reroute/retry/failover)\n",
		v.ResentBytes/1e6, v.ResentBudget/1e6, core.DefaultResumeChunk/(1<<20))
	fmt.Fprintf(out, "invalidation bus: %d events -> %d converging holds, %d announce releases, %d re-elections\n",
		stack.Stats.RouteEvents, stack.Stats.RouteConverges, stack.Stats.RouteAnnounces,
		stack.Stats.CacheInvalidations)

	fmt.Fprintln(out, "routing events (first 10):")
	for i, ev := range stack.Events {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more\n", len(stack.Events)-10)
			break
		}
		fmt.Fprintf(out, "  %s\n", ev)
	}

	perRoute := make([]string, 0, len(stack.Stats.PerRoute))
	for r := range stack.Stats.PerRoute {
		perRoute = append(perRoute, r)
	}
	sort.Strings(perRoute)
	fmt.Fprintln(out, "stack per-route totals:")
	for _, r := range perRoute {
		rs := stack.Stats.PerRoute[r]
		fmt.Fprintf(out, "  %-16s %4d jobs  %8.1f MB  %6.2f MB/s\n",
			r, rs.Jobs, rs.Bytes/1e6, rs.Throughput()/1e6)
	}
}
