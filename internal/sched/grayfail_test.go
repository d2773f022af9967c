package sched

import "testing"

// grayfailPair runs the ablation and the stack once for the canonical
// seed, shared across the acceptance assertions below.
func grayfailPair(t *testing.T) (GrayfailOutcome, GrayfailOutcome) {
	t.Helper()
	control := RunGrayfail(ReplayOptions{Seed: 2015})
	stack := RunGrayfail(ReplayOptions{Seed: 2015, Stack: true})
	return control, stack
}

// TestGrayfailAcceptance is the PR's acceptance gate for seed 2015: the
// health stack completes the fleet with materially better goodput than
// the no-health ablation, every silent degradation window is
// detected by a watchdog abort within a bounded latency, and the
// mitigation machinery (stalls, reroutes, canaries, metered retries)
// demonstrably ran.
func TestGrayfailAcceptance(t *testing.T) {
	control, stack := grayfailPair(t)
	v := CompareGrayfail(control, stack)

	if v.ControlFailed != 0 || v.StackFailed != 0 {
		t.Fatalf("failures: control %d, stack %d — gray failures must not hard-fail jobs", v.ControlFailed, v.StackFailed)
	}
	if s := v.Speedup(); s < 1.2 {
		t.Errorf("speedup = %.3fx, want >= 1.2x (control %.0fs, stack %.0fs)",
			s, control.VirtualSeconds, stack.VirtualSeconds)
	}
	if len(v.Detections) != 2 {
		t.Fatalf("detections = %+v, want the provider-slow and dtn-disk-slow windows", v.Detections)
	}
	for _, d := range v.Detections {
		if d.DetectedAt < 0 {
			t.Errorf("%s window at t=%.0f never detected", d.Fault, d.Start)
			continue
		}
		// The bound: one DefaultBudget is the worst admissible first
		// catch; in practice the adaptive budgets land far below it.
		if lat := d.Latency(); lat > 600 {
			t.Errorf("%s detection latency %.1fs, want <= 600", d.Fault, lat)
		}
	}
	if stack.Stats.Stalls == 0 || stack.Stats.StallReroutes == 0 {
		t.Errorf("stalls=%d reroutes=%d, want the watchdog to have fired and rerouted", stack.Stats.Stalls, stack.Stats.StallReroutes)
	}
	if stack.Stats.Canaries == 0 {
		t.Error("no canary probes ran — probation re-admission untested by the replay")
	}
	if len(stack.Health) == 0 {
		t.Error("no health transitions recorded")
	}
	// Retries stayed within the metered budget: something was spent,
	// nothing exceeded the bucket (Tokens never goes negative and Spent
	// minus earn-backs is bounded by the burst, which denial enforces).
	if v.RetrySpent == 0 {
		t.Error("retry budget never spent — the hard-error burst should meter at least one retry")
	}
	for _, b := range stack.Budgets {
		if b.Tokens < 0 {
			t.Errorf("provider %s bucket at %.1f tokens — overdrawn", b.Provider, b.Tokens)
		}
	}
	// The ablation, blind to gray failures, must show none of this.
	if control.Stats.Stalls != 0 || control.Stats.Canaries != 0 || len(control.Health) != 0 {
		t.Errorf("ablation ran health machinery: %+v", control.Stats)
	}
}
