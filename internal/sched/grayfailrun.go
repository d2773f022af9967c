// Grayfail replay: the gray-failure harness behind `make grayfail`,
// `detourd -replay grayfail`, and the grayfail acceptance tests. One
// RunGrayfail call builds a world, arms the faults.GrayfailSchedule —
// degradations that never return an error: a provider silently
// throttling one peering point, a DTN's staging disk dying slowly, a
// link shedding goodput — and drives a fixed UBC fleet through the
// scheduler, either with the health stack (stall watchdogs, outlier
// ejection with canary re-admission, retry budgets) or as the
// no-health ablation (Health left nil) that must discover the same
// degradations the hard way, through the bandit's slow relearning.
// Determinism is the harness's (see replay.go).
package sched

import (
	"fmt"
	"io"
	"strings"

	"detournet/internal/faults"
	"detournet/internal/health"
	"detournet/internal/scenario"
)

// GrayfailOutcome is one replay's complete, deterministic result set.
type GrayfailOutcome struct {
	Replay
	// Health is the tracker's transition log (probation entries/exits,
	// budget exhaustions); empty for the ablation.
	Health []string
	// Table and Budgets are the tracker's final entity and retry-bucket
	// snapshots; empty for the ablation.
	Table   []health.EntityHealth
	Budgets []health.RetryBudget
	// StallTimes are the virtual times of watchdog aborts (the
	// health.stall trace events), in order — the detection signal.
	StallTimes []float64
}

// RunGrayfail replays the gray-failure scenario once over a fixed
// 60-job fleet. Stack arms the health layer; the control arm is the
// no-health ablation: same scheduler, same retries, no gray-failure
// detection.
func RunGrayfail(o ReplayOptions) GrayfailOutcome {
	w := scenario.Build(o.Seed)
	inj := faults.NewInjector(w, o.Seed, faults.GrayfailSchedule()...)
	exec := NewSimExecutor(w)
	defer exec.Close()

	cfg := Config{
		Workers:  1, // sequential ⇒ deterministic
		Executor: exec, Planner: exec,
		MaxAttempts: 4,
		// Longer than the whole replay: a short TTL would let BOTH arms
		// escape a gray window by getting lucky with a re-probe, turning
		// the comparison into a TTL-timing lottery. Pinning it means the
		// ablation can only escape through the bandit's slow relearning
		// and the stack only through the health layer — which is exactly
		// the delta the replay measures.
		CacheTTL: 3600,
		Now:      exec.VirtualNow,
		Sleep:    exec.SleepVirtual,
	}
	var tracker *health.Tracker
	if o.Stack {
		tracker = health.New(health.Options{
			Now: exec.VirtualNow, Trace: w.Trace,
			// One canary per few transfers: jobs run tens of seconds, so
			// 60 s (doubling per miss) probes a probationary route often
			// enough to re-admit it promptly once a window closes without
			// flooding it while the window is open.
			CanaryInterval: 60,
		})
		cfg.Health = tracker
	}
	// A single-site fleet: UBC to Google Drive. Its favorite detour via
	// UAlberta is exactly what the schedule silently sickens — first the
	// provider throttles the DTN's peering point (the relay hop crawls,
	// invisibly to the client), then the DTN's staging disk degrades
	// (the first hop crawls, visibly slowly).
	jobs := make([]Job, 60)
	for i := range jobs {
		jobs[i] = Job{
			Tenant: "grayfail", Client: scenario.UBC,
			Provider: scenario.GoogleDrive,
			Name:     fmt.Sprintf("gray-%03d.bin", i), Size: replayJobSize,
		}
	}
	results, st := runFleet(cfg, jobs, nil)
	out := GrayfailOutcome{Replay: Replay{
		Results: results, Stats: st,
		Transitions:    inj.Transitions(),
		VirtualSeconds: exec.VirtualNow(),
	}}
	for _, ev := range w.Trace.Filter("health.stall") {
		out.StallTimes = append(out.StallTimes, ev.At)
	}
	if tracker != nil {
		out.Health = tracker.Transitions()
		out.Table = tracker.Snapshot()
		out.Budgets = tracker.RetryBudgets()
	}
	return out
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

// GrayfailVerdict is the acceptance arithmetic over an ablation/stack
// pair.
type GrayfailVerdict struct {
	// ControlGoodput and StackGoodput are delivered bytes/sec; Speedup
	// their ratio (the health stack's recovery factor).
	ControlGoodput float64
	StackGoodput   float64
	// ControlFailed and StackFailed count terminal failures.
	ControlFailed int
	StackFailed   int
	// Detections holds, per gray fault kind, the first watchdog catch.
	Detections []GrayDetection
	// RetrySpent and RetryDenied aggregate the stack's retry-bucket
	// consumption, proving retries stayed under the budget cap.
	RetrySpent  int
	RetryDenied int
}

// Speedup is stack goodput over control goodput (0 when control is 0).
func (v GrayfailVerdict) Speedup() float64 {
	if v.ControlGoodput <= 0 {
		return 0
	}
	return v.StackGoodput / v.ControlGoodput
}

// grayWindowStarts extracts each gray fault kind's first activation
// time from the injector's transition log.
func grayWindowStarts(transitions []string) []GrayDetection {
	kinds := []string{"provider-slow", "dtn-disk-slow"}
	var out []GrayDetection
	for _, kind := range kinds {
		for _, line := range transitions {
			if !strings.Contains(line, " "+kind+" ") || !strings.HasSuffix(line, "active=true") {
				continue
			}
			var t float64
			if _, err := fmt.Sscanf(line, "t=%f", &t); err == nil {
				out = append(out, GrayDetection{Fault: kind, Start: t, DetectedAt: -1})
			}
			break
		}
	}
	return out
}

// CompareGrayfail scores the no-health ablation against the health
// stack for the same fleet and seed.
func CompareGrayfail(control, stack GrayfailOutcome) GrayfailVerdict {
	v := GrayfailVerdict{
		ControlGoodput: control.Goodput(),
		StackGoodput:   stack.Goodput(),
		ControlFailed:  control.Failed(),
		StackFailed:    stack.Failed(),
	}
	v.Detections = grayWindowStarts(stack.Transitions)
	for i := range v.Detections {
		for _, t := range stack.StallTimes {
			if t >= v.Detections[i].Start {
				v.Detections[i].DetectedAt = t
				break
			}
		}
	}
	for _, b := range stack.Budgets {
		v.RetrySpent += b.Spent
		v.RetryDenied += b.Denied
	}
	return v
}

// WriteGrayfailReport renders the deterministic with/without report
// `detourd -replay grayfail` prints.
func WriteGrayfailReport(out io.Writer, control, stack GrayfailOutcome) {
	line := func(label string, o GrayfailOutcome) {
		st := o.Stats
		fmt.Fprintf(out, "%-8s %3d done %3d failed | %d stalls %d stall-reroutes %d canaries %d budget-parked | %d retries | goodput %.2f MB/s | %.0f virtual s\n",
			label, st.Done, st.Failed, st.Stalls, st.StallReroutes, st.Canaries,
			st.BudgetParks, st.Retries, o.Goodput()/1e6, o.VirtualSeconds)
	}
	fmt.Fprintf(out, "Grayfail: %d transfers vs silent degradation (%d fault transitions, hard errors only in the t=650-770 burst)\n",
		len(stack.Results), len(stack.Transitions))
	line("control", control)
	line("stack", stack)

	v := CompareGrayfail(control, stack)
	fmt.Fprintf(out, "goodput %.2fx the no-health ablation\n", v.Speedup())
	fmt.Fprintln(out, "detection (first watchdog abort at or after each silent window opens):")
	for _, d := range v.Detections {
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
}
