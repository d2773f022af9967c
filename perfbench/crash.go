package main

import (
	"fmt"
	"sort"
	"strings"

	"detournet/internal/faults"
	"detournet/internal/health"
	"detournet/internal/journal"
	"detournet/internal/rsyncx"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// crashJobs is the crashsafe fleet's size, for which the sweep's crash
// occurrences are tuned; twelve legs over a run's inputs give the
// 99th percentile more than ten samples beyond it. crashSize is its
// upload size, large enough to be relayed through a DTN with many
// journaled checkpoints.
const (
	crashJobs = 60
	crashSize = 60e6
)

// crashLeg is one leg of the crash-restart workload: a crash-free
// control or one entry of the crashsafe sweep, in its own world with
// its own journal device.
type crashLeg struct {
	leg   sched.CrashsafeLeg
	label string
	tr    *tracer
	w     *scenario.World
	inj   *faults.Injector
	dev   journal.Device
	tdev  *tracedDevice
	cj    *sched.ControlJournal
	first *crashPhase
	jobs  []sched.Job
}

// crashPhase is one incarnation of the control plane.
type crashPhase struct {
	exec    *sched.SimExecutor
	s       *sched.Scheduler
	results []sched.Result
}

type crashRun struct{ legs []*crashLeg }

func legLabel(l sched.CrashsafeLeg) string {
	switch {
	case l.Point == "" && l.JournalFaults:
		return "journal-rot+torn"
	case l.Point == "":
		return "control"
	}
	s := fmt.Sprintf("%s#%d", l.Point, l.Occurrence)
	if l.BitRot {
		s += "+bitrot"
	}
	return s
}

func setupCrash(seed int64, tr *tracer) instance {
	c := &crashRun{}
	for _, l := range append([]sched.CrashsafeLeg{{}}, sched.CrashsafeSweepLegs()...) {
		c.legs = append(c.legs, setupCrashLeg(seed, l, tr))
	}
	return c
}

func setupCrashLeg(seed int64, l sched.CrashsafeLeg, tr *tracer) *crashLeg {
	cl := &crashLeg{leg: l, label: legLabel(l), tr: tr}
	cl.w = scenario.Build(seed)
	if l.JournalFaults {
		// Journal decay: rot flips log bytes while transfers run, then a
		// torn append kills the control plane mid-record.
		cl.inj = faults.NewInjector(cl.w, seed,
			faults.Spec{Kind: faults.BitRot, Journal: true, Start: 20, Duration: 5, Flips: 3},
			faults.Spec{Kind: faults.TornWrite, Journal: true, Start: 40, Duration: 1e9},
		)
	}
	cl.dev, cl.tdev = deviceFor(tr)
	cj, _, err := sched.NewControlJournal(cl.dev)
	if err != nil {
		panic(err)
	}
	cl.cj = cj
	if cl.inj != nil {
		cl.inj.SetCrashControl(&faults.CrashControl{
			ArmCrash: cj.Arm, DisarmCrash: cj.Disarm,
			TornJournal: cj.TornJournal, FlipJournal: cj.FlipJournalByte,
		})
	}
	if l.Point != "" {
		cj.Arm(l.Point, l.Occurrence)
	}
	for i := 0; i < crashJobs; i++ {
		name := fmt.Sprintf("crash-%03d.bin", i)
		cl.jobs = append(cl.jobs, sched.Job{
			Tenant: "crashsafe", Client: scenario.UBC, Provider: scenario.GoogleDrive,
			Name: name, Size: crashSize, MD5: rsyncx.Checksum([]byte(name)),
		})
	}
	cl.first = cl.newPhase(cj, nil)
	return cl
}

// newPhase builds one scheduler incarnation on the leg's journal.
// retrySpent re-drains the fresh health tracker's budgets to the
// journaled level.
func (cl *crashLeg) newPhase(cj *sched.ControlJournal, retrySpent map[string]int) *crashPhase {
	p := &crashPhase{exec: sched.NewSimExecutor(cl.w)}
	tracker := health.New(health.Options{Now: p.exec.VirtualNow, Trace: cl.w.Trace, CanaryInterval: 60})
	provs := make([]string, 0, len(retrySpent))
	for prov := range retrySpent {
		provs = append(provs, prov)
	}
	sort.Strings(provs)
	for _, prov := range provs {
		tracker.RestoreSpentRetries(prov, retrySpent[prov])
	}
	x := executorFor(p.exec, cl.tr)
	p.s = sched.New(sched.Config{
		Workers:  1, // one worker ⇒ deterministic
		Executor: x, Planner: x,
		MaxAttempts: 4,
		CacheTTL:    3600,
		Health:      tracker,
		Journal:     cj,
		Now:         p.exec.VirtualNow,
		Sleep:       sleeperFor(p.exec, cl.tr),
		OnResult: func(r sched.Result) {
			// After the kill nothing the dead process produced is
			// observed; the journal is the only witness.
			if !cj.Killed() {
				p.results = append(p.results, r)
			}
		},
	})
	return p
}

// drive submits every job not in skip (in fleet order, so recovered
// names keep their journal sequence numbers) and drains.
func (cl *crashLeg) drive(p *crashPhase, cj *sched.ControlJournal, skip map[string]bool) sched.Stats {
	for _, j := range cl.jobs {
		if skip[j.Name] {
			continue
		}
		if cj.Killed() {
			break // the submitter died with the process
		}
		id := cl.tr.begin(spanSubmit, j.Name)
		err := p.s.Submit(j)
		cl.tr.end(id)
		if err != nil {
			panic(err)
		}
	}
	p.s.Start()
	id := cl.tr.begin(spanDrain, "")
	p.s.Drain()
	cl.tr.end(id)
	st := p.s.Stats()
	p.s.Close()
	p.exec.Close()
	return st
}

func (c *crashRun) run() *outcome {
	o := &outcome{}
	var control []string
	for _, cl := range c.legs {
		listing := cl.run(o)
		if cl.leg.Point == "" && !cl.leg.JournalFaults {
			control = listing
		} else if strings.Join(listing, "\n") != strings.Join(control, "\n") {
			o.failf("%s: provider listing differs from the crash-free control", cl.label)
		}
	}
	return o
}

// run drives one leg: the first incarnation, and when it was killed,
// the journal replay and the restarted incarnation. It returns the
// provider listing.
func (cl *crashLeg) run(o *outcome) []string {
	o.addStats(cl.drive(cl.first, cl.cj, nil))
	results := cl.first.results
	o.jAppends += cl.cj.Appended()
	o.jCompactions += cl.cj.Compactions()
	crashes := cl.leg.Point != "" || cl.leg.JournalFaults
	if crashes && !cl.cj.Killed() {
		o.failf("%s: the control plane was never killed", cl.label)
	}
	if cl.cj.Killed() {
		id := cl.tr.begin(spanReplay, cl.label)
		cj2, rec, err := sched.NewControlJournal(cl.dev)
		cl.tr.end(id)
		if err != nil {
			panic(err)
		}
		o.replayRecords += rec.Records
		if cl.inj != nil {
			// The restart must not die at the same planned point again;
			// journal rot keeps targeting the live device.
			cl.inj.SetCrashControl(&faults.CrashControl{
				ArmCrash: func(string, int) {}, DisarmCrash: func(string) {},
				TornJournal: func(bool) {}, FlipJournal: cj2.FlipJournalByte,
			})
		}
		if cl.leg.BitRot {
			cl.rot(rec)
		}
		skip := make(map[string]bool, len(rec.Finished))
		for _, r := range rec.Finished {
			skip[r.Job.Name] = true
		}
		p2 := cl.newPhase(cj2, rec.RetrySpent)
		o.addStats(cl.drive(p2, cj2, skip))
		for _, r := range p2.results {
			if skip[r.Job.Name] {
				o.failf("%s: journal-finished job %s was run again", cl.label, r.Job.Name)
			}
		}
		results = append(append([]sched.Result{}, rec.Finished...), p2.results...)
		o.jAppends += cj2.Appended()
		o.jCompactions += cj2.Compactions()
	}
	for _, r := range results {
		o.addResult(cl.label+":", r)
	}
	o.checkJobs(cl.label, cl.jobs, results, cl.w.Services)
	o.vsec += float64(cl.w.Eng.Now())
	o.events += cl.w.Eng.Processed()
	if cl.tdev != nil {
		o.devBytes += cl.tdev.bytes
	}
	var listing []string
	for _, ob := range cl.w.Services[scenario.GoogleDrive].Store.List() {
		listing = append(listing, fmt.Sprintf("%s %s %s", ob.Name, fmtF(ob.Size), ob.MD5))
	}
	sort.Strings(listing)
	return listing
}

// rot corrupts staged chunks of every in-flight job while the process
// is down: chunk 0 and a middle chunk, which recovery must repair.
func (cl *crashLeg) rot(rec *sched.Recovered) {
	for _, pj := range rec.Pending {
		via := pj.Checkpoint().Hop1Via
		if !pj.HasCkpt || via == "" {
			continue
		}
		d := cl.w.Daemons[via]
		if d == nil {
			continue
		}
		d.RotChunk(pj.Job.Name, 0)
		if n := d.StagedChunks(pj.Job.Name); n > 2 {
			d.RotChunk(pj.Job.Name, n/2)
		}
	}
}
