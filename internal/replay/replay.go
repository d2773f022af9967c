// Package replay holds the committed scenario replays: a fixed world,
// fault schedule and fleet driven through the scheduler
// (internal/sched), as an ablated control and with the mitigation
// stack under test, with a verdict over the two. Each replay is data —
// world options, a faults.Spec schedule, a fleet and a Config preset
// per arm — handed to one arm runner (rig.run). Replays is the surface
// table: detourd -replay NAME and `make check` run every entry by name
// at its committed seed.
//
// Everything is deterministic per seed: Workers is 1 (sequential ⇒
// deterministic), faults are pure functions of the virtual clock, and
// the report renderers only iterate sorted data. Same seed, same binary
// ⇒ byte-identical output.
//
// The exported runners (Churn, Grayfail, Crashsafe, Multipath,
// Telemetry and their outcomes) are what the control plane's
// acceptance tests drive; the reports stay private to the table.
package replay

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"detournet/internal/bgppol"
	"detournet/internal/core"
	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/tracelog"
	"detournet/internal/workload"
)

// Replay is the result set every fleet replay shares.
type Replay struct {
	// Results in completion order (sequential worker ⇒ stable).
	Results []sched.Result
	Stats   sched.Stats
	// Faults are the world trace's fault.<kind> events, one per fault
	// transition, carrying its target and active attributes.
	Faults []tracelog.Event
	// Rejected counts the trace arrivals Submit refused, per tenant.
	Rejected map[string]int
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

// speedup is the stack arm's goodput over the control's (0 when the
// control delivered nothing): the recovery factor a control/stack
// report prints.
func speedup(control, stack Replay) float64 {
	if control.Goodput() <= 0 {
		return 0
	}
	return stack.Goodput() / control.Goodput()
}

// sortedKeys returns m's keys in order, for deterministic listings.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// replayJobSize is the bytes per transfer in the churn, grayfail,
// pressure and crashsafe fleets: 60 MB, long enough that fault windows
// land mid-flight.
const replayJobSize = 60e6

// fleetOf is a batch of n replayJobSize transfers to Google Drive
// named prefix-NNN.bin, round-robin over clients.
func fleetOf(n int, tenant, prefix string, clients ...string) []sched.Job {
	jobs := make([]sched.Job, n)
	for i := range jobs {
		jobs[i] = sched.Job{
			Tenant: tenant, Client: clients[i%len(clients)],
			Provider: scenario.GoogleDrive,
			Name:     fmt.Sprintf("%s-%03d.bin", prefix, i), Size: replayJobSize,
		}
	}
	return jobs
}

// rig is one replay's world with its fault schedule armed. run drives
// one scheduler incarnation on it; while the arm's preset runs, exec,
// cfg and attach describe that incarnation.
type rig struct {
	w   *scenario.World
	inj *faults.Injector // nil for an empty schedule
	// exec is the incarnation's SimExecutor; cfg the Workers-1 base
	// Config whose Executor, Planner and Sleep are exec (or, for a
	// trace, the feeder wrapping it); attach, when set, runs on the new
	// scheduler before Start.
	exec   *sched.SimExecutor
	cfg    sched.Config
	attach func(*sched.Scheduler)
}

// newRig builds the world and arms the schedule on it.
func newRig(seed int64, specs []faults.Spec, opts ...scenario.Option) *rig {
	r := &rig{w: scenario.Build(seed, opts...)}
	if len(specs) > 0 {
		r.inj = faults.NewInjector(r.w, seed, specs...)
	}
	return r
}

// fleet is what an arm drives: a batch of jobs submitted before Start,
// so the single worker sees the same queue on every run, or an arrival
// trace fed on the virtual clock (see feeder).
type fleet struct {
	jobs  []sched.Job
	trace []workload.FleetJob
}

// run drives one scheduler incarnation over the fleet: a fresh
// SimExecutor and base Config, the arm's preset, New, attach, submit,
// Start, drain, Stats, Close. When cfg.Journal fires an armed kill the
// process is dead: submission stops and later results are dropped —
// the journal is the only witness.
func (r *rig) run(f fleet, preset func(*rig)) Replay {
	r.exec = sched.NewSimExecutor(r.w)
	defer r.exec.Close()
	r.cfg = sched.Config{
		Workers:  1, // sequential ⇒ deterministic
		Executor: r.exec, Planner: r.exec,
		Now:   r.exec.VirtualNow,
		Sleep: r.exec.SleepVirtual,
	}
	r.attach = nil
	var out Replay
	var s *sched.Scheduler
	var fd *feeder
	if f.trace != nil {
		out.Rejected = map[string]int{}
		fd = &feeder{exec: r.exec, trace: f.trace, submit: func(fj workload.FleetJob) {
			if s.Submit(sched.Job{
				Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider,
				Name: fj.Name, Size: fj.Size, Priority: fj.Priority, Deadline: fj.Deadline,
			}) != nil {
				out.Rejected[fj.Tenant]++
			}
		}}
		r.cfg.Executor, r.cfg.Planner, r.cfg.Sleep = fd, fd, fd.Sleep
	}
	if preset != nil {
		preset(r)
	}
	killed := func() bool { return r.cfg.Journal != nil && r.cfg.Journal.Killed() }
	r.cfg.OnResult = func(res sched.Result) {
		if !killed() {
			out.Results = append(out.Results, res)
		}
	}
	s = sched.New(r.cfg)
	if r.attach != nil {
		r.attach(s)
	}
	for _, j := range f.jobs {
		if killed() {
			break
		}
		if err := s.Submit(j); err != nil {
			panic(err)
		}
	}
	s.Start()
	if fd != nil {
		fd.Run(s)
	} else {
		s.Drain()
	}
	out.Stats = s.Stats()
	s.Close()
	out.Faults = r.w.Trace.Filter("fault")
	out.VirtualSeconds = r.exec.VirtualNow()
	return out
}

// subscribeRoutes is the push-invalidation attach: routing events
// reach the route cache the instant they happen instead of waiting out
// TTLs.
func (r *rig) subscribeRoutes(s *sched.Scheduler) {
	r.w.RouteBus.Subscribe(func(ev bgppol.Event) { s.RouteEvent(sched.RouteEventOf(ev)) })
}

// feeder replays an arrival trace against the virtual clock. It wraps
// the simulation executor so every virtual-time advance — transfer,
// probe, hedge, reroute, or backoff sleep — first completes, then
// submits every arrival the new clock has reached. That is what makes
// an open-arrival replay deterministic with one worker: arrivals
// interleave with service by virtual time, not by goroutine timing.
//
// A feeder is both Config.Executor and Config.Planner, with
// Config.Sleep = feeder.Sleep. It deliberately exposes only the entry
// points below, not the executor's optional interfaces (path-aware
// planning, prechecks, health, quota reclaim). Hedging still requires
// Config.Hedge and rerouting Config.Reroute.
type feeder struct {
	exec   *sched.SimExecutor
	trace  []workload.FleetJob // sorted by arrival
	submit func(workload.FleetJob)
	// mu serializes feed: Run's catch-up feed on the caller's goroutine
	// can still be submitting same-instant arrivals when the worker,
	// already running the first of them, feeds from inside an executor
	// call.
	mu   sync.Mutex
	next int
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
func (f *feeder) Run(s *sched.Scheduler) {
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

func (f *feeder) Execute(j sched.Job, r core.Route) (float64, error) {
	sec, err := f.exec.Execute(j, r)
	f.feed()
	return sec, err
}

func (f *feeder) ExecuteResumable(j sched.Job, r core.Route, ck *core.Checkpoint) (float64, error) {
	sec, err := f.exec.ExecuteResumable(j, r, ck)
	f.feed()
	return sec, err
}

func (f *feeder) ExecuteHedged(j sched.Job, r core.Route, budget float64, ck *core.Checkpoint) (float64, core.Route, bool, bool, error) {
	sec, route, launched, won, err := f.exec.ExecuteHedged(j, r, budget, ck)
	f.feed()
	return sec, route, launched, won, err
}

func (f *feeder) ExecuteRerouting(j sched.Job, r core.Route, ck *core.Checkpoint, parkBudget float64) (float64, core.Route, int, float64, error) {
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

// Entry is one committed replay: the seed its report is pinned at, and
// the function that runs it and prints the report. Run returns a
// non-nil error when the replay's sanity invariants fail.
type Entry struct {
	Seed int64
	Run  func(out io.Writer, seed int64) error
}

// Replays is the table of committed replays, by name.
var Replays = map[string]Entry{
	"churn":     {Seed: 2015, Run: runChurn},
	"grayfail":  {Seed: 2015, Run: runGrayfail},
	"pressure":  {Seed: 2015, Run: runPressure},
	"overload":  {Seed: 2015, Run: runOverload},
	"crashsafe": {Seed: 2015, Run: runCrashsafe},
	"multipath": {Seed: 2015, Run: runMultipath},
	// Seed 7: under the storm it fails exactly one transfer, so the
	// report always includes a complete failed-job decision trace (the
	// default evaluation seed 2015 drains clean).
	"telemetry": {Seed: 7, Run: runTelemetry},
}
