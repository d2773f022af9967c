package main

import (
	"math/rand"

	"detournet/internal/bgppol"
	"detournet/internal/faults"
	"detournet/internal/health"
	"detournet/internal/rsyncx"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
	"detournet/internal/workload"
)

// fleetJobs is the fleet trace length: enough completed jobs that the
// 99th percentile has more than ten samples beyond it.
const fleetJobs = 1200

// fleetRun is the fleet workload: a personal-cloud trace from three
// campuses to three providers, drained through the full control plane
// as the telemetry daemon mode wires it — dynamic routing under the
// churn storm, health tracker, control journal, telemetry registry,
// flight recorder and sampler, rerouting and hedging.
type fleetRun struct {
	tr      *tracer
	w       *scenario.World
	exec    *sched.SimExecutor
	s       *sched.Scheduler
	cj      *sched.ControlJournal
	dev     *tracedDevice
	jobs    []sched.Job
	results []sched.Result
}

func setupFleet(seed int64, tr *tracer) instance {
	f := &fleetRun{tr: tr}
	w := scenario.Build(seed, scenario.WithDynamicRouting())
	f.w = w
	// The injector registers itself with the world and replays the
	// storm on the virtual clock.
	faults.NewInjector(w, seed, faults.ChurnSchedule()...)
	f.exec = sched.NewSimExecutor(w)

	reg := telemetry.NewRegistry()
	rec := telemetry.NewFlightRecorder(f.exec.VirtualNow, 64, 6)
	samp := telemetry.NewSampler(w.Eng, 15, 1024)
	w.AddPauser(samp)

	dev, tdev := deviceFor(tr)
	cj, _, err := sched.NewControlJournal(dev)
	if err != nil {
		panic(err)
	}
	f.cj, f.dev = cj, tdev
	tracker := health.New(health.Options{Now: f.exec.VirtualNow, Trace: w.Trace, CanaryInterval: 60})

	x := executorFor(f.exec, tr)
	f.s = sched.New(sched.Config{
		Workers:  1, // one worker ⇒ deterministic
		Executor: x, Planner: x,
		// Hedged detour attempts do not reroute inside the attempt, so
		// under the churn storm a detour job can lose several attempts
		// in a row; six absorbs every storm window.
		MaxAttempts: 6,
		Reroute:     true,
		Hedge:       true,
		CacheTTL:    300,
		Health:      tracker,
		Journal:     cj,
		Telemetry:   reg,
		Recorder:    rec,
		Now:         f.exec.VirtualNow,
		Sleep:       sleeperFor(f.exec, tr),
		OnResult:    func(r sched.Result) { f.results = append(f.results, r) },
	})
	w.RouteBus.Subscribe(func(ev bgppol.Event) {
		f.s.RouteEvent(sched.RouteEvent{
			Withdraw: ev.Kind == bgppol.EventWithdraw,
			DomainA:  ev.DomainA, DomainB: ev.DomainB,
			FromNode: ev.FromNode, ToNode: ev.ToNode,
			At: ev.At, ConvergedBy: ev.ConvergedBy,
		})
	})
	fl := w.Graph.Fluid()
	samp.Track("net.flows", func() float64 { return float64(fl.ActiveFlows()) })
	samp.Track("sched.queued", func() float64 { q, _ := f.s.Depths(); return float64(q) })
	samp.Track("journal.kb", func() float64 { return float64(cj.DeviceSize()) / 1024 })

	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:      fleetJobs,
		Clients:   scenario.Clients,
		Providers: scenario.ProviderNames,
		Sizes:     newDeck(workload.PersonalCloud().(*workload.Empirical), fleetJobs, seed),
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	for _, fj := range trace {
		f.jobs = append(f.jobs, sched.Job{
			Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider,
			Name: fj.Name, Size: fj.Size, Priority: fj.Priority,
			MD5: rsyncx.Checksum([]byte(fj.Name)),
		})
	}
	return f
}

// deck draws sizes in their exact weighted proportions, in a seeded
// order: fleets at different seeds carry the same byte mix, so the
// seed moves who uploads what, where and when, but not how much.
type deck struct {
	sizes []float64
	next  int
}

func newDeck(e *workload.Empirical, n int, seed int64) *deck {
	var total float64
	for _, w := range e.Weights {
		total += w
	}
	d := &deck{}
	for i, sz := range e.Sizes {
		for k := 0; k < int(float64(n)*e.Weights[i]/total+0.5); k++ {
			d.sizes = append(d.sizes, sz)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(d.sizes), func(i, j int) { d.sizes[i], d.sizes[j] = d.sizes[j], d.sizes[i] })
	return d
}

// Sample implements workload.SizeDist.
func (d *deck) Sample(*rand.Rand) float64 {
	s := d.sizes[d.next%len(d.sizes)]
	d.next++
	return s
}

func (f *fleetRun) run() *outcome {
	o := &outcome{}
	// The closed batch lands before the worker starts, so the drain
	// order depends only on the trace.
	for _, j := range f.jobs {
		id := f.tr.begin(spanSubmit, j.Name)
		err := f.s.Submit(j)
		f.tr.end(id)
		if err != nil {
			o.failf("submit %s: %v", j.Name, err)
		}
	}
	f.s.Start()
	id := f.tr.begin(spanDrain, "")
	f.s.Drain()
	f.tr.end(id)
	st := f.s.Stats()
	f.s.Close()
	f.exec.Close()

	for _, r := range f.results {
		o.addResult("", r)
	}
	o.addStats(st)
	o.checkJobs("fleet", f.jobs, f.results, f.w.Services)
	o.vsec = float64(f.w.Eng.Now())
	o.events = f.w.Eng.Processed()
	o.jAppends, o.jCompactions = f.cj.Appended(), f.cj.Compactions()
	if f.dev != nil {
		o.devBytes = f.dev.bytes
	}
	return o
}
