// Grayfail replay: the gray-failure harness behind `make grayfail`,
// `detourd -replay grayfail`, and the grayfail acceptance tests. Each
// arm builds a world, arms the faults.GrayfailSchedule — degradations
// that never return an error: a provider silently throttling one
// peering point, a DTN's staging disk dying slowly, a link shedding
// goodput — and drives a fixed UBC fleet through the scheduler, either
// with the health stack (stall watchdogs, outlier ejection with canary
// re-admission, retry budgets) or as the no-health ablation (Health
// left nil) that must discover the same degradations the hard way,
// through the bandit's slow relearning. Determinism is the harness's
// (see replay.go).

package replay

import (
	"fmt"
	"io"

	"detournet/internal/faults"
	"detournet/internal/health"
	"detournet/internal/scenario"
	"detournet/internal/tracelog"
)

// GrayfailOutcome is one arm's complete, deterministic result set.
type GrayfailOutcome struct {
	Replay
	// Health is the tracker's transition log (probation entries/exits,
	// budget exhaustions); empty for the ablation.
	Health []string
	// Table and Budgets are the tracker's final entity and retry-bucket
	// snapshots; empty for the ablation.
	Table   []health.EntityHealth
	Budgets []health.RetryBudget
	// Detections holds, per silent fault kind, the window's first
	// activation and the first watchdog abort at or after it.
	Detections []GrayDetection
}

// grayfailArm replays the gray-failure scenario once over a fixed
// 60-job fleet. The stack arm arms the health layer; the control arm
// is the no-health ablation: same scheduler, same retries, no
// gray-failure detection.
func grayfailArm(seed int64, stack bool) GrayfailOutcome {
	r := newRig(seed, faults.GrayfailSchedule())
	var tracker *health.Tracker
	// A single-site fleet: UBC to Google Drive. Its favorite detour via
	// UAlberta is exactly what the schedule silently sickens — first the
	// provider throttles the DTN's peering point (the relay hop crawls,
	// invisibly to the client), then the DTN's staging disk degrades
	// (the first hop crawls, visibly slowly).
	jobs := fleetOf(60, "grayfail", "gray", scenario.UBC)
	out := GrayfailOutcome{Replay: r.run(fleet{jobs: jobs}, func(r *rig) {
		r.cfg.MaxAttempts = 4
		// Longer than the whole replay: a short TTL would let BOTH arms
		// escape a gray window by getting lucky with a re-probe, turning
		// the comparison into a TTL-timing lottery. Pinning it means the
		// ablation can only escape through the bandit's slow relearning
		// and the stack only through the health layer — which is exactly
		// the delta the replay measures.
		r.cfg.CacheTTL = 3600
		if stack {
			tracker = r.tracker()
			r.cfg.Health = tracker
		}
	})}
	out.Detections = grayDetections(out.Faults, r.w.Trace.Filter("health.stall"))
	if tracker != nil {
		out.Health = tracker.Transitions()
		out.Table = tracker.Snapshot()
		out.Budgets = tracker.RetryBudgets()
	}
	return out
}

// tracker is the health stack the grayfail, pressure and crashsafe
// arms share. One canary per few transfers: jobs run tens of seconds,
// so 60 s (doubling per miss) probes a probationary route often enough
// to re-admit it promptly once a window closes without flooding it
// while the window is open.
func (r *rig) tracker() *health.Tracker {
	return health.New(health.Options{
		Now: r.exec.VirtualNow, Trace: r.w.Trace, CanaryInterval: 60,
	})
}

// GrayDetection is one silent fault window and when the watchdog first
// caught it.
type GrayDetection struct {
	// Fault is the injector kind string (e.g. "provider-slow").
	Fault string
	// Start is the window's first activation time; DetectedAt the first
	// watchdog abort at or after it (-1 when none fired).
	Start      float64
	DetectedAt float64
}

// Latency is detection time minus window start (-1 when undetected).
func (d GrayDetection) Latency() float64 {
	if d.DetectedAt < 0 {
		return -1
	}
	return d.DetectedAt - d.Start
}

// grayDetections pairs each silent fault kind's first activation (its
// first fault.<kind> event with active=true) with the first
// health.stall event at or after it.
func grayDetections(faultEvents, stalls []tracelog.Event) []GrayDetection {
	var out []GrayDetection
	for _, kind := range []faults.Kind{faults.ProviderSlow, faults.DTNDiskSlow} {
		for _, ev := range faultEvents {
			if ev.Kind != "fault."+kind.String() || ev.Attrs["active"] != true {
				continue
			}
			d := GrayDetection{Fault: kind.String(), Start: ev.At, DetectedAt: -1}
			for _, st := range stalls {
				if st.At >= d.Start {
					d.DetectedAt = st.At
					break
				}
			}
			out = append(out, d)
			break
		}
	}
	return out
}

// Grayfail runs the no-health ablation and the health stack at seed.
func Grayfail(seed int64) (control, stack GrayfailOutcome) {
	return grayfailArm(seed, false), grayfailArm(seed, true)
}

// runGrayfail renders the deterministic with/without report `detourd
// -replay grayfail` prints.
func runGrayfail(out io.Writer, seed int64) error {
	control, stack := Grayfail(seed)
	line := func(label string, o GrayfailOutcome) {
		st := o.Stats
		fmt.Fprintf(out, "%-8s %3d done %3d failed | %d stalls %d stall-reroutes %d canaries %d budget-parked | %d retries | goodput %.2f MB/s | %.0f virtual s\n",
			label, st.Done, st.Failed, st.Stalls, st.StallReroutes, st.Canaries,
			st.BudgetParks, st.Retries, o.Goodput()/1e6, o.VirtualSeconds)
	}
	fmt.Fprintf(out, "Grayfail: %d transfers vs silent degradation (%d fault transitions, hard errors only in the t=650-770 burst)\n",
		len(stack.Results), len(stack.Faults))
	line("control", control)
	line("stack", stack)

	fmt.Fprintf(out, "goodput %.2fx the no-health ablation\n", speedup(control.Replay, stack.Replay))
	fmt.Fprintln(out, "detection (first watchdog abort at or after each silent window opens):")
	for _, d := range stack.Detections {
		if d.DetectedAt < 0 {
			fmt.Fprintf(out, "  %-14s window t=%-5.0f undetected\n", d.Fault, d.Start)
			continue
		}
		fmt.Fprintf(out, "  %-14s window t=%-5.0f first stall t=%-7.1f latency %.1fs\n",
			d.Fault, d.Start, d.DetectedAt, d.Latency())
	}
	fmt.Fprintln(out, "health transitions:")
	for _, tr := range stack.Health {
		fmt.Fprintf(out, "  %s\n", tr)
	}
	fmt.Fprintln(out, "health table:")
	for _, e := range stack.Table {
		state := "healthy"
		if e.Probation {
			state = "probation"
		}
		fmt.Fprintf(out, "  %-9s %-16s baseline %6.2f MB/s  %-9s stalls %d  obs %d\n",
			e.Class, e.Entity, e.Baseline/1e6, state, e.Stalls, e.Observations)
	}
	fmt.Fprintln(out, "retry budgets:")
	for _, b := range stack.Budgets {
		fmt.Fprintf(out, "  %-12s tokens %.1f  spent %d  denied %d\n",
			b.Provider, b.Tokens, b.Spent, b.Denied)
	}
	return nil
}
