// Replay harness: the pieces every committed scenario replay shares.
// Each replay (churn, grayfail, pressure, crashsafe, multipath,
// telemetry, overload) builds its own world and arms its own faults,
// then hands a fixed fleet to one of two drivers — runFleet for a batch
// submitted up front, feeder for a trace whose arrivals ride the
// virtual clock — and collects a Replay. Replays is the surface table:
// detourd -replay NAME and `make check` run every entry by name at its
// committed seed.
//
// Everything is deterministic per seed: Workers is 1 (sequential ⇒
// deterministic — the repo's established idiom), faults are pure
// functions of the virtual clock, and the report renderers only
// iterate sorted data. Same seed, same binary ⇒ byte-identical output.
package sched

import (
	"fmt"
	"io"
	"sync"

	"detournet/internal/bgppol"
	"detournet/internal/core"
	"detournet/internal/workload"
)

// Replay is the result set every fleet replay shares.
type Replay struct {
	// Results in completion order (sequential worker ⇒ stable).
	Results []Result
	Stats   Stats
	// Transitions is the fault injector's transition log.
	Transitions []string
	// VirtualSeconds is the total simulated time the replay spanned.
	VirtualSeconds float64
}

// Goodput is the replay's delivered rate: successfully transferred
// bytes over the virtual seconds the whole fleet took.
func (r Replay) Goodput() float64 {
	if r.VirtualSeconds <= 0 {
		return 0
	}
	var bytes float64
	for _, res := range r.Results {
		if res.Err == nil {
			bytes += res.Job.Size
		}
	}
	return bytes / r.VirtualSeconds
}

// Done counts successful results.
func (r Replay) Done() int { return len(r.Results) - r.Failed() }

// Failed counts terminal failures.
func (r Replay) Failed() int {
	n := 0
	for _, res := range r.Results {
		if res.Err != nil {
			n++
		}
	}
	return n
}

// ReplayOptions configures one arm of a control/stack replay (churn,
// grayfail, pressure). Each replay fixes its own fleet; every transfer
// is replayJobSize bytes.
type ReplayOptions struct {
	// Seed drives the world, the fault schedule, and any seeded delays.
	Seed int64
	// Stack arms the replay's mitigation stack. False runs the ablated
	// control.
	Stack bool
}

// replayJobSize is the bytes per transfer in the churn, grayfail,
// pressure and crashsafe fleets: 60 MB, long enough that fault windows
// land mid-flight.
const replayJobSize = 60e6

// runFleet drives one scheduler incarnation over a fixed fleet: New,
// attach (when non-nil), submit every job, Start, Drain, Stats, Close.
// Submitting before Start lands the whole burst with no transfer in
// flight, so the single worker sees the same queue on every run. When
// cfg.Journal fires an armed kill the process is dead: submission stops
// and later results are dropped — the journal is the only witness.
func runFleet(cfg Config, jobs []Job, attach func(*Scheduler)) ([]Result, Stats) {
	var results []Result
	killed := func() bool { return cfg.Journal != nil && cfg.Journal.Killed() }
	cfg.OnResult = func(r Result) {
		if !killed() {
			results = append(results, r)
		}
	}
	s := New(cfg)
	if attach != nil {
		attach(s)
	}
	for _, j := range jobs {
		if killed() {
			break
		}
		if err := s.Submit(j); err != nil {
			panic(err)
		}
	}
	s.Start()
	s.Drain()
	st := s.Stats()
	s.Close()
	return results, st
}

// RouteEventOf converts a routing-plane event into the route cache's
// invalidation event.
func RouteEventOf(ev bgppol.Event) RouteEvent {
	return RouteEvent{
		Withdraw: ev.Kind == bgppol.EventWithdraw,
		DomainA:  ev.DomainA, DomainB: ev.DomainB,
		FromNode: ev.FromNode, ToNode: ev.ToNode,
		At: ev.At, ConvergedBy: ev.ConvergedBy,
	}
}

// feeder replays an arrival trace against the virtual clock. It wraps
// the simulation executor so every virtual-time advance — transfer,
// probe, hedge, reroute, or backoff sleep — first completes, then
// submits every arrival the new clock has reached. That is what makes
// an open-arrival replay deterministic with one worker: arrivals
// interleave with service by virtual time, not by goroutine timing.
//
// Use a feeder as both Config.Executor and Config.Planner, with
// Config.Sleep = feeder.Sleep. It deliberately exposes only the entry
// points below, not the executor's optional interfaces (path-aware
// planning, prechecks, health, quota reclaim). Hedging still requires
// Config.Hedge and rerouting Config.Reroute.
type feeder struct {
	exec   *SimExecutor
	trace  []workload.FleetJob
	submit func(workload.FleetJob)
	// mu serializes feed: Run's catch-up feed on the caller's goroutine
	// can still be submitting same-instant arrivals when the worker,
	// already running the first of them, feeds from inside an executor
	// call.
	mu   sync.Mutex
	next int
}

// newFeeder feeds trace (sorted by arrival) through submit as exec's
// virtual clock passes each arrival.
func newFeeder(exec *SimExecutor, trace []workload.FleetJob, submit func(workload.FleetJob)) *feeder {
	return &feeder{exec: exec, trace: trace, submit: submit}
}

// feed submits every arrival due at or before the current clock.
func (f *feeder) feed() {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.exec.VirtualNow()
	for f.next < len(f.trace) && f.trace[f.next].At <= now {
		fj := f.trace[f.next]
		f.next++
		f.submit(fj)
	}
}

// Run drains s until the trace is exhausted: whenever the scheduler
// goes idle before the next arrival, the clock skips ahead to it.
func (f *feeder) Run(s *Scheduler) {
	for {
		s.Drain()
		if f.next >= len(f.trace) {
			break
		}
		if at, now := f.trace[f.next].At, f.exec.VirtualNow(); at > now {
			f.exec.SleepVirtual(at - now)
		}
		f.feed()
	}
	s.Drain()
}

func (f *feeder) Execute(j Job, r core.Route) (float64, error) {
	sec, err := f.exec.Execute(j, r)
	f.feed()
	return sec, err
}

func (f *feeder) ExecuteResumable(j Job, r core.Route, ck *core.Checkpoint) (float64, error) {
	sec, err := f.exec.ExecuteResumable(j, r, ck)
	f.feed()
	return sec, err
}

func (f *feeder) ExecuteHedged(j Job, r core.Route, budget float64, ck *core.Checkpoint) (float64, core.Route, bool, bool, error) {
	sec, route, launched, won, err := f.exec.ExecuteHedged(j, r, budget, ck)
	f.feed()
	return sec, route, launched, won, err
}

func (f *feeder) ExecuteRerouting(j Job, r core.Route, ck *core.Checkpoint, parkBudget float64) (float64, core.Route, int, float64, error) {
	sec, final, nr, parked, err := f.exec.ExecuteRerouting(j, r, ck, parkBudget)
	f.feed()
	return sec, final, nr, parked, err
}

func (f *feeder) Plan(client, provider string, size float64) (core.Route, []core.Route, error) {
	route, cands, err := f.exec.Plan(client, provider, size)
	f.feed()
	return route, cands, err
}

func (f *feeder) Sleep(sec float64) {
	f.exec.SleepVirtual(sec)
	f.feed()
}

// ReplayEntry is one committed replay: the seed its report is pinned
// at, and the function that runs it and prints the report. Run returns
// a non-nil error when the replay's sanity invariants fail.
type ReplayEntry struct {
	Seed int64
	Run  func(out io.Writer, seed int64) error
}

// controlVsStack runs a replay's ablated control and its stack arm at
// one seed and prints the with/without report.
func controlVsStack[O any](run func(ReplayOptions) O, write func(io.Writer, O, O)) func(io.Writer, int64) error {
	return func(out io.Writer, seed int64) error {
		write(out, run(ReplayOptions{Seed: seed}), run(ReplayOptions{Seed: seed, Stack: true}))
		return nil
	}
}

// Replays is the table of committed replays, by name.
var Replays = map[string]ReplayEntry{
	"churn":    {Seed: 2015, Run: controlVsStack(RunChurn, WriteChurnReport)},
	"grayfail": {Seed: 2015, Run: controlVsStack(RunGrayfail, WriteGrayfailReport)},
	"pressure": {Seed: 2015, Run: controlVsStack(RunPressure, WritePressureReport)},
	"overload": {Seed: 2015, Run: controlVsStack(runOverload, writeOverloadReport)},
	"crashsafe": {Seed: 2015, Run: func(out io.Writer, seed int64) error {
		control, legs := RunCrashsafeSweep(seed)
		WriteCrashsafeReport(out, control, legs)
		WriteCrashsafeDecayReport(out, RunCrashsafe(CrashsafeOptions{Seed: seed, Decay: true}))
		return CrashsafeSanity(control, legs)
	}},
	"multipath": {Seed: 2015, Run: func(out io.Writer, seed int64) error {
		o := RunMultipath(MultipathOptions{Seed: seed})
		WriteMultipathReport(out, o, RunMultipathChurn(seed))
		return MultipathSanity(o)
	}},
	// Seed 7: under the storm it fails exactly one transfer, so the
	// report always includes a complete failed-job decision trace (the
	// default evaluation seed 2015 drains clean).
	"telemetry": {Seed: 7, Run: func(out io.Writer, seed int64) error {
		fmt.Fprintln(out, "== live telemetry ==")
		o := RunTelemetry(TelemetryOptions{Seed: seed, DumpEvery: 120, DumpTo: out})
		fmt.Fprintln(out)
		fmt.Fprintln(out, "== dashboard ==")
		WriteTelemetryDash(out, o)
		fmt.Fprintln(out)
		fmt.Fprintln(out, "== full report ==")
		WriteTelemetryReport(out, o)
		return nil
	}},
}
