// Churn replay: the reconvergence-storm harness behind `make churn`,
// `detourd -replay churn`, and the churn acceptance tests. Each arm
// builds a world with dynamic (staged-convergence) routing, arms the
// faults.ChurnSchedule storm, and drives a fixed fleet of transfers
// through the scheduler — either with the full churn stack
// (checkpointed resume, make-before-break rerouting with parking,
// push-based route invalidation off the bus) or as the ablated control
// (one attempt, no recovery, TTL-only caching).
//
// The convergence delays come from the world's seeded RNG; the rest of
// the determinism contract is the harness's (see replay.go), and `make
// check` verifies it.

package replay

import (
	"fmt"
	"io"

	"detournet/internal/bgppol"
	"detournet/internal/core"
	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// ChurnOutcome is one arm's complete, deterministic result set.
type ChurnOutcome struct {
	Replay
	// Events is the routing-plane event log (withdraws/announces with
	// their convergence horizons).
	Events []bgppol.Event
}

// churnArm replays the storm once over a fixed 36-job fleet.
func churnArm(seed int64, stack bool) ChurnOutcome {
	r := newRig(seed, faults.ChurnSchedule(), scenario.WithDynamicRouting())
	// A fixed two-site fleet on the storm's target provider: UBC rides
	// the pinned PacificWave path that flips away and back, UAlberta
	// sits behind the Cybera~CANARIE session that gets cut entirely.
	jobs := fleetOf(36, "churn", "churn", scenario.UBC, scenario.UAlberta)
	out := ChurnOutcome{Replay: r.run(fleet{jobs: jobs}, func(r *rig) {
		if stack {
			r.cfg.MaxAttempts = 5
			r.cfg.Reroute = true
			r.cfg.ParkBudget = 120
			r.attach = r.subscribeRoutes
			return
		}
		r.cfg.MaxAttempts = 1
		// No checkpointed resume: the bare Execute hides the executor's
		// resumable (and every other optional) interface.
		r.cfg.Executor = sched.ExecutorFunc(r.exec.Execute)
	})}
	if r.w.Routing != nil {
		out.Events = r.w.Routing.Events()
	}
	return out
}

// ChurnVerdict is the acceptance arithmetic over a control/stack pair,
// computed on the union of jobs either run shows the storm touched: a
// failure, a retry, a reroute, parking, or re-sent bytes.
type ChurnVerdict struct {
	Control, Stack ChurnOutcome
	// Affected is how many distinct jobs the storm touched across the
	// two runs.
	Affected int
	// ControlFailed of those failed in the control run; StackSurvived
	// of them completed in the stack run.
	ControlFailed int
	StackSurvived int
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

// Churn runs the control and the stack arm at seed and scores them.
func Churn(seed int64) ChurnVerdict {
	v := ChurnVerdict{Control: churnArm(seed, false), Stack: churnArm(seed, true)}
	aff := make(map[string]bool)
	for _, o := range []ChurnOutcome{v.Control, v.Stack} {
		for _, r := range o.Results {
			if r.Err != nil || r.Attempts > 1 || r.Reroutes > 0 || r.Parked > 0 || r.Rewritten > 0 {
				aff[r.Job.Name] = true
			}
		}
	}
	v.Affected = len(aff)
	for _, r := range v.Control.Results {
		if aff[r.Job.Name] && r.Err != nil {
			v.ControlFailed++
		}
	}
	for _, r := range v.Stack.Results {
		if aff[r.Job.Name] && r.Err == nil {
			v.StackSurvived++
		}
	}
	st := v.Stack.Stats
	v.ResentBytes = st.BytesRewritten
	v.ResentBudget = core.DefaultResumeChunk * float64(st.Reroutes+st.Retries+st.Failovers)
	return v
}

// runChurn renders the deterministic with/without report `detourd
// -replay churn` prints.
func runChurn(out io.Writer, seed int64) error {
	v := Churn(seed)
	control, stack := v.Control, v.Stack
	line := func(label string, o ChurnOutcome) {
		st := o.Stats
		fmt.Fprintf(out, "%-8s %3d done %3d failed | %d reroutes %d parks %.0fs parked | %d retries %d failovers | %.1f MB resumed %.1f MB re-sent | %.0f virtual s\n",
			label, st.Done, st.Failed, st.Reroutes, st.Parks, st.ParkSeconds,
			st.Retries, st.Failovers, st.BytesResumed/1e6, st.BytesRewritten/1e6,
			o.VirtualSeconds)
	}
	fmt.Fprintf(out, "Churn: %d transfers vs a reconvergence storm (%d routing events, %d fault transitions)\n",
		len(stack.Results), len(stack.Events), len(stack.Faults))
	line("control", control)
	line("stack", stack)

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

	fmt.Fprintln(out, "stack per-route totals:")
	for _, r := range sortedKeys(stack.Stats.PerRoute) {
		rs := stack.Stats.PerRoute[r]
		fmt.Fprintf(out, "  %-16s %4d jobs  %8.1f MB  %6.2f MB/s\n",
			r, rs.Jobs, rs.Bytes/1e6, rs.Throughput()/1e6)
	}
	return nil
}
