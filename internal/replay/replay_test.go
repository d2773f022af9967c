package replay

import (
	"fmt"
	"reflect"
	"testing"

	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/tracelog"
)

// TestGrayDetections reads detection windows off typed trace events:
// a window opens at its kind's first active=true fault event (earlier
// recoveries and other kinds do not count), and its detection is the
// first stall at or after the opening; none leaves it undetected.
func TestGrayDetections(t *testing.T) {
	ev := func(at float64, kind string, active bool) tracelog.Event {
		return tracelog.Event{At: at, Kind: kind, Attrs: map[string]any{"target": "x", "active": active}}
	}
	faultEvents := []tracelog.Event{
		ev(60, "fault.link-silent-loss", true),
		ev(100, "fault.provider-slow", false),
		ev(150, "fault.provider-slow", true),
		ev(300, "fault.provider-slow", true),
		ev(2700, "fault.dtn-disk-slow", true),
	}
	stalls := []tracelog.Event{{At: 140, Kind: "health.stall"}, {At: 152.5, Kind: "health.stall"}}
	got := grayDetections(faultEvents, stalls)
	want := []GrayDetection{
		{Fault: "provider-slow", Start: 150, DetectedAt: 152.5},
		{Fault: "dtn-disk-slow", Start: 2700, DetectedAt: -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("detections = %+v, want %+v", got, want)
	}
	if l := got[0].Latency(); l != 2.5 {
		t.Errorf("latency = %g, want 2.5", l)
	}
	if l := got[1].Latency(); l != -1 {
		t.Errorf("undetected latency = %g, want -1", l)
	}
}

// TestRunCollectsFaultEvents: an arm's Faults are its world's fault
// transitions — one typed event per state change the injector applied,
// the same record Injector.Transitions renders.
func TestRunCollectsFaultEvents(t *testing.T) {
	r := newRig(11, []faults.Spec{{
		Kind: faults.LinkDown, From: "vncv1", To: "edmn1",
		Start: 1, Duration: 2, Period: 5, Repeat: 2,
	}})
	out := r.run(fleet{jobs: fleetOf(2, "t", "f", scenario.UBC)}, nil)
	if out.Done() != 2 {
		t.Fatalf("done = %d of 2: %+v", out.Done(), out.Stats)
	}
	if len(out.Faults) != r.inj.Injected || len(out.Faults) != 4 {
		t.Fatalf("%d fault events, injector applied %d, want 4", len(out.Faults), r.inj.Injected)
	}
	lines := r.inj.Transitions()
	if len(lines) != len(out.Faults) {
		t.Fatalf("Transitions renders %d lines for %d events", len(lines), len(out.Faults))
	}
	for i, e := range out.Faults {
		active := i%2 == 0
		if e.Kind != "fault.link-down" || e.Attrs["active"] != active {
			t.Errorf("event %d = %s, want link-down active=%v", i, e, active)
		}
		if want := fmt.Sprintf("t=%.3f link-down vncv1<->edmn1 active=%v", e.At, active); lines[i] != want {
			t.Errorf("transition %d = %q, want %q", i, lines[i], want)
		}
	}
}
