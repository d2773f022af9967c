// Pressure replay: the storage-exhaustion harness behind `make
// pressure`, `detourd -replay pressure`, `detourctl -capacity`, and
// the pressure acceptance tests. One RunPressure call builds a world
// whose storage is finite everywhere it used to be bottomless — each
// DTN gets a bounded staging disk, Google Drive gets a finite account
// quota, the control-plane journal sits on a bounded device — then
// arms faults.PressureSchedule (a co-tenant filling the staging
// volumes, an abandoned client draining the quota, the journal volume
// filling mid-run) and drives a fixed UBC fleet through the
// scheduler.
//
// The Stack arm runs the full mitigation ladder: LRU eviction of stale
// staged state, spill-aware placement (route election reads DTN
// headroom), provider-session reclamation on the first 507, spill to
// alternate providers, and journal degradation to in-memory folding.
// The control arm is the pre-mitigation scheduler: no eviction (a full
// disk stays full), no capacity oracle (routes are elected blind), a
// reclaim pass that frees nothing, and no alternate providers (quota
// exhaustion parks the job).
//
// Determinism is the harness's (see replay.go).
package sched

import (
	"fmt"
	"io"

	"detournet/internal/faults"
	"detournet/internal/health"
	"detournet/internal/journal"
	"detournet/internal/rsyncx"
	"detournet/internal/scenario"
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

// StagingSnapshot is one DTN's final staging-disk accounting.
type StagingSnapshot struct {
	DTN string
	rsyncx.CapacityStats
}

// QuotaSnapshot is one provider's final storage accounting.
type QuotaSnapshot struct {
	Provider string
	// Quota is the configured bound; Used the committed object bytes;
	// Pending the uncommitted bytes live upload sessions still hold.
	Quota, Used, Pending float64
	// SessionsReclaimed counts abandoned sessions GC'd by reclaim.
	SessionsReclaimed int
}

// PressureOutcome is one replay's complete, deterministic result set.
type PressureOutcome struct {
	Replay
	// Health is the tracker's transition log (probation and warning
	// lines — the journal-degraded warning lands here); empty for the
	// ablation.
	Health []string
	// Staging holds each DTN's final disk accounting, in scenario.DTNs
	// order.
	Staging []StagingSnapshot
	// Quota holds each provider's final storage accounting, in
	// scenario.ProviderNames order.
	Quota []QuotaSnapshot
}

// noReclaimExec is the ablation's executor: the full SimExecutor minus
// quota reclamation. Shadowing ReclaimQuota with a no-op models the
// pre-mitigation scheduler, whose 507 handling never asked the
// provider to GC abandoned sessions.
type noReclaimExec struct{ *SimExecutor }

func (e noReclaimExec) ReclaimQuota(provider string) float64 { return 0 }

// RunPressure replays the storage-pressure scenario once over a fixed
// 60-job fleet. Stack arms the mitigation ladder; the control arm
// runs without eviction, capacity oracle, reclaim, or spill targets.
func RunPressure(o ReplayOptions) PressureOutcome {
	w := scenario.Build(o.Seed)
	// Finite storage everywhere the seed world was bottomless. Both arms
	// get identical bounds — the delta under test is the mitigation, not
	// the hardware.
	for _, dtn := range scenario.DTNs {
		d := w.Daemons[dtn]
		d.Capacity = pressureStagingCap
		d.EvictStale = o.Stack
	}
	for _, name := range scenario.ProviderNames {
		if name == scenario.GoogleDrive {
			w.Services[name].Store.Quota = pressureQuota
		} else {
			w.Services[name].Store.Quota = pressureAltQuota
		}
	}
	dev := journal.NewMemDevice()
	dev.Capacity = pressureJournalCap
	cj, _, err := NewControlJournal(dev)
	if err != nil {
		panic(err)
	}
	inj := faults.NewInjector(w, o.Seed, faults.PressureSchedule()...)
	inj.SetCrashControl(&faults.CrashControl{JournalENOSPC: cj.JournalENOSPC})
	exec := NewSimExecutor(w)
	defer exec.Close()

	cfg := Config{
		Workers:  1, // sequential ⇒ deterministic
		Executor: exec, Planner: exec,
		MaxAttempts: 4,
		// Pinned past the whole replay for the same reason as grayfail:
		// a short TTL would let either arm escape a pressure window by
		// re-probe luck instead of through the mitigation under test.
		CacheTTL: 3600,
		Now:      exec.VirtualNow,
		Sleep:    exec.SleepVirtual,
		Journal:  cj,
	}
	var tracker *health.Tracker
	if o.Stack {
		cfg.Capacity = exec
		tracker = health.New(health.Options{
			Now: exec.VirtualNow, Trace: w.Trace,
			CanaryInterval: 60,
		})
		cfg.Health = tracker
	} else {
		cfg.Executor = noReclaimExec{exec}
	}
	// A single-site fleet: UBC to Google Drive, the same shape as the
	// grayfail fleet — except this time the detour DTNs' disks and the
	// destination account are what runs out, not their speed. The stack
	// arm may spill overflow onto the other two providers; the ablation
	// has nowhere to go.
	jobs := make([]Job, 60)
	for i := range jobs {
		jobs[i] = Job{
			Tenant: "pressure", Client: scenario.UBC,
			Provider: scenario.GoogleDrive,
			Name:     fmt.Sprintf("pressure-%03d.bin", i), Size: replayJobSize,
		}
		if o.Stack {
			jobs[i].AltProviders = []string{scenario.Dropbox, scenario.OneDrive}
		}
	}
	results, st := runFleet(cfg, jobs, nil)
	out := PressureOutcome{Replay: Replay{
		Results: results, Stats: st,
		Transitions:    inj.Transitions(),
		VirtualSeconds: exec.VirtualNow(),
	}}
	for _, dtn := range scenario.DTNs {
		out.Staging = append(out.Staging, StagingSnapshot{
			DTN: dtn, CapacityStats: w.Daemons[dtn].Stats(),
		})
	}
	for _, name := range scenario.ProviderNames {
		svc := w.Services[name]
		out.Quota = append(out.Quota, QuotaSnapshot{
			Provider: name,
			Quota:    svc.Store.Quota, Used: svc.Store.Used(),
			Pending:           svc.PendingBytes(),
			SessionsReclaimed: svc.SessionsReclaimed,
		})
	}
	if tracker != nil {
		out.Health = tracker.Transitions()
	}
	return out
}

// PressureVerdict is the acceptance arithmetic over an ablation/stack
// pair.
type PressureVerdict struct {
	// ControlGoodput and StackGoodput are delivered bytes/sec; Speedup
	// their ratio (the mitigation ladder's recovery factor).
	ControlGoodput float64
	StackGoodput   float64
	// ControlFailed and StackFailed count terminal failures.
	ControlFailed int
	StackFailed   int
	// StackEvictions and StackEvictedBytes aggregate LRU evictions
	// across the stack arm's staging disks.
	StackEvictions    int
	StackEvictedBytes float64
	// QuotaReclaims and ProviderSpills are the stack arm's 507
	// mitigations; QuotaParks its terminal quota failures.
	QuotaReclaims  int64
	ProviderSpills int64
	QuotaParks     int64
}

// Speedup is stack goodput over control goodput (0 when control is 0).
func (v PressureVerdict) Speedup() float64 {
	if v.ControlGoodput <= 0 {
		return 0
	}
	return v.StackGoodput / v.ControlGoodput
}

// ComparePressure scores the ablation against the mitigation stack for
// the same fleet and seed.
func ComparePressure(control, stack PressureOutcome) PressureVerdict {
	v := PressureVerdict{
		ControlGoodput: control.Goodput(),
		StackGoodput:   stack.Goodput(),
		ControlFailed:  control.Failed(),
		StackFailed:    stack.Failed(),
		QuotaReclaims:  stack.Stats.QuotaReclaims,
		ProviderSpills: stack.Stats.ProviderSpills,
		QuotaParks:     stack.Stats.QuotaParks,
	}
	for _, sn := range stack.Staging {
		v.StackEvictions += sn.Evictions
		v.StackEvictedBytes += sn.EvictedBytes
	}
	return v
}

// WritePressureReport renders the deterministic with/without report
// `detourd -replay pressure` prints.
func WritePressureReport(out io.Writer, control, stack PressureOutcome) {
	line := func(label string, o PressureOutcome) {
		st := o.Stats
		fmt.Fprintf(out, "%-8s %3d done %3d failed | quota: %d fails %d reclaims %d spills %d parked | journal: degraded=%v saves=%d dropped=%d | goodput %.2f MB/s | %.0f virtual s\n",
			label, st.Done, st.Failed,
			st.QuotaFailures, st.QuotaReclaims, st.ProviderSpills, st.QuotaParks,
			st.JournalDegraded, st.JournalENOSPCSaves, st.JournalDropped,
			o.Goodput()/1e6, o.VirtualSeconds)
	}
	fmt.Fprintf(out, "Pressure: %d transfers vs storage exhaustion (%d fault transitions: staging disks fill, quota drains, journal device fills)\n",
		len(stack.Results), len(stack.Transitions))
	line("control", control)
	line("stack", stack)

	v := ComparePressure(control, stack)
	fmt.Fprintf(out, "goodput %.2fx the no-mitigation ablation\n", v.Speedup())
	fmt.Fprintln(out, "staging disks (stack arm):")
	for _, sn := range stack.Staging {
		fmt.Fprintf(out, "  %-9s cap %4.0f MB used %4.0f MB headroom %4.0f MB | %d staged %d partials | %d evictions (%.0f MB) %d orphans swept\n",
			sn.DTN, sn.Capacity/1e6, sn.Used/1e6, sn.Headroom/1e6,
			sn.Staged, sn.Partials, sn.Evictions, sn.EvictedBytes/1e6, sn.OrphansSwept)
	}
	fmt.Fprintln(out, "provider quota (stack arm):")
	for _, q := range stack.Quota {
		fmt.Fprintf(out, "  %-12s quota %4.0f MB used %4.0f MB pending %4.0f MB | %d sessions reclaimed\n",
			q.Provider, q.Quota/1e6, q.Used/1e6, q.Pending/1e6, q.SessionsReclaimed)
	}
	fmt.Fprintln(out, "health transitions:")
	for _, tr := range stack.Health {
		fmt.Fprintf(out, "  %s\n", tr)
	}
}
