// Pressure replay: the storage-exhaustion harness behind `make
// pressure`, `detourd -replay pressure` and `detourctl -capacity`.
// Each arm builds a world whose storage is finite everywhere it used
// to be bottomless — each DTN gets a bounded staging disk, Google
// Drive gets a finite account quota, the control-plane journal sits on
// a bounded device — then arms faults.PressureSchedule (a co-tenant
// filling the staging volumes, an abandoned client draining the quota,
// the journal volume filling mid-run) and drives a fixed UBC fleet
// through the scheduler.
//
// The stack arm runs the full mitigation ladder: LRU eviction of stale
// staged state, spill-aware placement (route election reads DTN
// headroom), provider-session reclamation on the first 507, spill to
// alternate providers, and journal degradation to in-memory folding.
// The control arm is the pre-mitigation scheduler: no eviction (a full
// disk stays full), no capacity oracle (routes are elected blind), a
// reclaim pass that frees nothing, and no alternate providers (quota
// exhaustion parks the job).
//
// Determinism is the harness's (see replay.go).

package replay

import (
	"fmt"
	"io"

	"detournet/internal/faults"
	"detournet/internal/health"
	"detournet/internal/journal"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// Pressure-world sizing. The fleet commits 60 x 60 MB = 3.6 GB against
// a 2.4 GB Google Drive quota with 600 MB drained by an abandoned
// session for most of the run, so the last third of the fleet can only
// finish by reclaiming the drain and spilling to the alternate
// providers. Staging disks hold ten transfers each; staged copies are
// never deleted after success, so the fleet overruns them early and
// only eviction keeps detours admitting.
const (
	pressureStagingCap = 600e6
	pressureQuota      = 2.4e9
	pressureAltQuota   = 3e9
	pressureJournalCap = 256 << 10
)

// pressureOutcome is one arm: its results, the tracker's transition
// log (probation and warning lines — the journal-degraded warning
// lands here; empty for the ablation), and the world whose staging
// disks and provider stores the reports read.
type pressureOutcome struct {
	Replay
	health []string
	w      *scenario.World
}

// noReclaimExec is the ablation's executor: the full SimExecutor minus
// quota reclamation. Shadowing ReclaimQuota with a no-op models the
// pre-mitigation scheduler, whose 507 handling never asked the
// provider to GC abandoned sessions.
type noReclaimExec struct{ *sched.SimExecutor }

func (e noReclaimExec) ReclaimQuota(provider string) float64 { return 0 }

// pressureArm replays the storage-pressure scenario once over a fixed
// 60-job fleet. The stack arm arms the mitigation ladder; the control
// arm runs without eviction, capacity oracle, reclaim, or spill
// targets.
func pressureArm(seed int64, stack bool) pressureOutcome {
	r := newRig(seed, faults.PressureSchedule())
	// Finite storage everywhere the seed world was bottomless. Both arms
	// get identical bounds — the delta under test is the mitigation, not
	// the hardware.
	for _, dtn := range scenario.DTNs {
		r.w.Daemons[dtn].Capacity = pressureStagingCap
		r.w.Daemons[dtn].EvictStale = stack
	}
	for _, name := range scenario.ProviderNames {
		r.w.Services[name].Store.Quota = pressureAltQuota
	}
	r.w.Services[scenario.GoogleDrive].Store.Quota = pressureQuota
	dev := journal.NewMemDevice()
	dev.Capacity = pressureJournalCap
	cj, _, err := sched.NewControlJournal(dev)
	if err != nil {
		panic(err)
	}
	r.inj.SetCrashControl(&faults.CrashControl{JournalENOSPC: cj.JournalENOSPC})
	// A single-site fleet: UBC to Google Drive, the same shape as the
	// grayfail fleet — except this time the detour DTNs' disks and the
	// destination account are what runs out, not their speed. The stack
	// arm may spill overflow onto the other two providers; the ablation
	// has nowhere to go.
	jobs := fleetOf(60, "pressure", "pressure", scenario.UBC)
	if stack {
		for i := range jobs {
			jobs[i].AltProviders = []string{scenario.Dropbox, scenario.OneDrive}
		}
	}
	var tracker *health.Tracker
	out := pressureOutcome{w: r.w, Replay: r.run(fleet{jobs: jobs}, func(r *rig) {
		r.cfg.MaxAttempts = 4
		// Pinned past the whole replay for the same reason as grayfail:
		// a short TTL would let either arm escape a pressure window by
		// re-probe luck instead of through the mitigation under test.
		r.cfg.CacheTTL = 3600
		r.cfg.Journal = cj
		if !stack {
			r.cfg.Executor = noReclaimExec{r.exec}
			return
		}
		r.cfg.Capacity = r.exec
		tracker = r.tracker()
		r.cfg.Health = tracker
	})}
	if tracker != nil {
		out.health = tracker.Transitions()
	}
	return out
}

// runPressure renders the deterministic with/without report `detourd
// -replay pressure` prints.
func runPressure(out io.Writer, seed int64) error {
	control, stack := pressureArm(seed, false), pressureArm(seed, true)
	line := func(label string, o pressureOutcome) {
		st := o.Stats
		fmt.Fprintf(out, "%-8s %3d done %3d failed | quota: %d fails %d reclaims %d spills %d parked | journal: degraded=%v saves=%d dropped=%d | goodput %.2f MB/s | %.0f virtual s\n",
			label, st.Done, st.Failed,
			st.QuotaFailures, st.QuotaReclaims, st.ProviderSpills, st.QuotaParks,
			st.JournalDegraded, st.JournalENOSPCSaves, st.JournalDropped,
			o.Goodput()/1e6, o.VirtualSeconds)
	}
	fmt.Fprintf(out, "Pressure: %d transfers vs storage exhaustion (%d fault transitions: staging disks fill, quota drains, journal device fills)\n",
		len(stack.Results), len(stack.Faults))
	line("control", control)
	line("stack", stack)

	fmt.Fprintf(out, "goodput %.2fx the no-mitigation ablation\n", speedup(control.Replay, stack.Replay))
	fmt.Fprintln(out, "staging disks (stack arm):")
	for _, dtn := range scenario.DTNs {
		sn := stack.w.Daemons[dtn].Stats()
		fmt.Fprintf(out, "  %-9s cap %4.0f MB used %4.0f MB headroom %4.0f MB | %d staged %d partials | %d evictions (%.0f MB) %d orphans swept\n",
			dtn, sn.Capacity/1e6, sn.Used/1e6, sn.Headroom/1e6,
			sn.Staged, sn.Partials, sn.Evictions, sn.EvictedBytes/1e6, sn.OrphansSwept)
	}
	fmt.Fprintln(out, "provider quota (stack arm):")
	for _, name := range scenario.ProviderNames {
		svc := stack.w.Services[name]
		fmt.Fprintf(out, "  %-12s quota %4.0f MB used %4.0f MB pending %4.0f MB | %d sessions reclaimed\n",
			name, svc.Store.Quota/1e6, svc.Store.Used()/1e6, svc.PendingBytes()/1e6, svc.SessionsReclaimed)
	}
	fmt.Fprintln(out, "health transitions:")
	for _, tr := range stack.health {
		fmt.Fprintf(out, "  %s\n", tr)
	}
	return nil
}

// WriteCapacity replays the storage-exhaustion scenario with the
// mitigation stack armed and renders the final storage accounting the
// way a real deployment's `detourctl -capacity` would read the control
// plane: each DTN's staging disk (with the reserved and orphan bytes
// the replay report omits), each provider's quota ledger with its free
// bytes, and the quota-mitigation counters.
func WriteCapacity(out io.Writer, seed int64) {
	o := pressureArm(seed, true)
	st := o.Stats
	fmt.Fprintf(out, "storage after %d transfers, %.0f virtual s: %d quota failures, %d reclaims, %d spills, %d quota-parked; journal degraded=%v enospc-saves=%d dropped=%d\n",
		len(o.Results), o.VirtualSeconds,
		st.QuotaFailures, st.QuotaReclaims, st.ProviderSpills, st.QuotaParks,
		st.JournalDegraded, st.JournalENOSPCSaves, st.JournalDropped)
	fmt.Fprintln(out, "staging disks:")
	for _, dtn := range scenario.DTNs {
		sn := o.w.Daemons[dtn].Stats()
		fmt.Fprintf(out, "  %-9s cap %4.0f MB used %4.0f MB headroom %4.0f MB reserved %4.0f MB | %d staged %d partials %d orphans | %d evictions (%.0f MB) %d orphans swept\n",
			dtn, sn.Capacity/1e6, sn.Used/1e6, sn.Headroom/1e6, sn.Reserved/1e6,
			sn.Staged, sn.Partials, sn.Orphans, sn.Evictions, sn.EvictedBytes/1e6, sn.OrphansSwept)
	}
	fmt.Fprintln(out, "provider quota:")
	for _, name := range scenario.ProviderNames {
		svc := o.w.Services[name]
		q, used, pending := svc.Store.Quota, svc.Store.Used(), svc.PendingBytes()
		fmt.Fprintf(out, "  %-12s quota %4.0f MB used %4.0f MB pending %4.0f MB free %4.0f MB | %d sessions reclaimed\n",
			name, q/1e6, used/1e6, pending/1e6, (q-used-pending)/1e6, svc.SessionsReclaimed)
	}
	fmt.Fprintln(out, "warnings:")
	for _, tr := range o.health {
		fmt.Fprintf(out, "  %s\n", tr)
	}
}
