// Overload: a flash crowd hits the scheduler at several times the
// sustainable service rate — four steady tenants sync all day, a fifth
// tenant dumps a burst, and mid-burst the detour's first-hop link
// degrades. The example replays the identical trace twice: a control
// run (unbounded queue, no shedding, no fairness, no hedging) and an
// overload run (bounded queue with per-tenant quotas, CoDel-style
// queue-delay shedding, weighted DRR fair queuing, hedged transfers,
// brownout degradation), then compares goodput, per-tenant fairness
// (Jain's index), and queue delay.
//
// The replay is deterministic: one worker, and trace arrivals are
// injected the instant a transfer carries the virtual clock past them,
// so a fixed seed reproduces every shed, rejection, and hedge.
package main

import (
	"fmt"
	"math/rand"
	"sort"

	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/workload"
)

const (
	seed       = 2015
	calmSec    = 40.0
	burstSec   = 160.0
	traceEnd   = calmSec + burstSec + calmSec
	slack      = 45.0 // per-job deadline slack, seconds
	steadyRate = 0.2  // jobs/s per steady tenant
	flashRate  = 6.0  // jobs/s from the flash tenant during the burst
)

// buildTrace lays the flash crowd over the steady fleet: each steady
// tenant is its own Poisson stream for the whole trace, the flash
// tenant follows the three-phase FlashCrowd schedule.
func buildTrace() []workload.FleetJob {
	rng := rand.New(rand.NewSource(seed))
	var parts [][]workload.FleetJob
	for ti := 0; ti < 4; ti++ {
		tn := fmt.Sprintf("steady-%d", ti)
		tr, err := workload.GenerateFleet(workload.FleetSpec{
			Jobs:    int(steadyRate * traceEnd),
			Clients: []string{scenario.UBC}, Providers: []string{scenario.GoogleDrive},
			Tenants:  []string{tn},
			Sizes:    workload.Fixed{Bytes: 1e6},
			Arrivals: workload.Poisson{RatePerSec: steadyRate},
			Prefix:   tn, PriorityLevels: 1, DeadlineSlack: slack,
		}, rng)
		if err != nil {
			panic(err)
		}
		parts = append(parts, clip(tr))
	}
	crowd, err := workload.NewFlashCrowd(
		workload.Phase{RatePerSec: 0.02, Seconds: calmSec},
		workload.Phase{RatePerSec: flashRate, Seconds: burstSec},
		workload.Phase{RatePerSec: 0.02},
	)
	if err != nil {
		panic(err)
	}
	flash, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:    int(flashRate*burstSec) + 40,
		Clients: []string{scenario.UBC}, Providers: []string{scenario.GoogleDrive},
		Tenants:  []string{"flash"},
		Sizes:    workload.Fixed{Bytes: 1e6},
		Arrivals: crowd,
		Prefix:   "flash", PriorityLevels: 1, DeadlineSlack: slack,
	}, rng)
	if err != nil {
		panic(err)
	}
	parts = append(parts, clip(flash))
	return workload.MergeFleet(parts...)
}

func clip(jobs []workload.FleetJob) []workload.FleetJob {
	out := jobs[:0]
	for _, j := range jobs {
		if j.At <= traceEnd {
			out = append(out, j)
		}
	}
	return out
}

type runReport struct {
	stats    sched.Stats
	goodput  float64 // deadline-met bytes
	results  []sched.Result
	attempts map[string]int
	rejected map[string]int
}

// run replays the trace through one scheduler configuration.
func run(trace []workload.FleetJob, label string, overloadOn bool) runReport {
	w := scenario.Build(seed)
	// Mid-burst, the detour's first hop (CANARIE Vancouver–Edmonton)
	// drops to 5% capacity: detour attempts stall past their learned
	// budget, and the overload run hedges them onto the direct route.
	faults.NewInjector(w, seed, faults.Spec{
		Kind: faults.LinkDegrade, From: "vncv1", To: "edmn1",
		Start: calmSec + burstSec/2, Duration: burstSec / 2, CapacityFactor: 0.05,
	})
	exec := sched.NewSimExecutor(w)
	defer exec.Close()

	rep := runReport{attempts: map[string]int{}, rejected: map[string]int{}}
	// Arrivals ride the virtual clock (see sched.Feeder).
	var s *sched.Scheduler
	fd := sched.NewFeeder(exec, trace, func(fj workload.FleetJob) {
		rep.attempts[fj.Tenant]++
		err := s.Submit(sched.Job{
			Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider,
			Name: fj.Name, Size: fj.Size, Deadline: fj.Deadline,
		})
		if err != nil {
			rep.rejected[fj.Tenant]++
		}
	})
	cfg := sched.Config{
		Workers: 1, Executor: fd, Planner: fd,
		MaxAttempts: 3,
		Now:         exec.VirtualNow,
		Sleep:       fd.Sleep,
		OnResult:    func(r sched.Result) { rep.results = append(rep.results, r) },
	}
	if overloadOn {
		cfg.QueueLimit = 100
		cfg.TenantQueueLimit = 80
		cfg.FairQueue = true
		cfg.DRRQuantumBytes = 1e6
		cfg.CoDelTarget = 6
		cfg.Hedge = true
		cfg.HedgeMinSamples = 4
		cfg.HedgeMaxFrac = 0.1
		cfg.BrownoutEnter = 0.8
	}
	s = sched.New(cfg)
	s.Start()
	defer s.Close()
	fd.Run(s)

	rep.stats = s.Stats()
	for _, r := range rep.results {
		if r.Err == nil && !r.Late {
			rep.goodput += r.Job.Size
		}
	}
	fmt.Printf("%s run: %s\n", label, rep.stats)
	return rep
}

func tenantRatios(rep runReport) (tenants []string, ratios map[string]float64) {
	done := map[string]float64{}
	for _, r := range rep.results {
		if r.Err == nil && !r.Late {
			done[r.Job.Tenant]++
		}
	}
	ratios = map[string]float64{}
	for tn, n := range rep.attempts {
		tenants = append(tenants, tn)
		ratios[tn] = done[tn] / float64(n)
	}
	sort.Strings(tenants)
	return tenants, ratios
}

func main() {
	trace := buildTrace()
	perTenant := map[string]int{}
	for _, fj := range trace {
		perTenant[fj.Tenant]++
	}
	fmt.Printf("Overload: %d jobs over %.0fs — calm %.0fs, burst %.0fs (flash tenant at %.0f jobs/s), calm %.0fs\n",
		len(trace), traceEnd, calmSec, burstSec, flashRate, calmSec)
	tenants := make([]string, 0, len(perTenant))
	for tn := range perTenant {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	for _, tn := range tenants {
		fmt.Printf("  %-10s %4d jobs\n", tn, perTenant[tn])
	}

	control := run(trace, "control ", false)
	overload := run(trace, "overload", true)

	fmt.Println()
	fmt.Printf("goodput (deadline-met): control %.0f MB, overload %.0f MB (%.2fx)\n",
		control.goodput/1e6, overload.goodput/1e6, overload.goodput/control.goodput)
	fmt.Printf("losses: control expired %d late %d | overload expired %d shed %d rejected %d late %d\n",
		control.stats.Expired, control.stats.Late,
		overload.stats.Expired, overload.stats.Shed,
		overload.stats.QueueFullRejects+overload.stats.TenantQuotaRejects, overload.stats.Late)
	fmt.Printf("queue delay p99: control %.1fs, overload %.1fs (CoDel EWMA at drain %.2fs)\n",
		control.stats.QueueDelayP99, overload.stats.QueueDelayP99, overload.stats.QueueDelayEWMA)
	fmt.Printf("hedging: %d launched, %d won (control: %d)\n",
		overload.stats.Hedges, overload.stats.HedgeWins, control.stats.Hedges)
	fmt.Printf("brownout: %d enters, %d exits; %d small jobs sent direct unplanned, %d stale cache serves\n",
		overload.stats.BrownoutEnters, overload.stats.BrownoutExits,
		overload.stats.BrownoutDirect, overload.stats.StaleServes)

	fmt.Println("per-tenant deadline-met ratio (of submission attempts):")
	names, oRatios := tenantRatios(overload)
	_, cRatios := tenantRatios(control)
	var steady []float64
	for _, tn := range names {
		fmt.Printf("  %-10s control %.2f   overload %.2f   (rejected %d)\n",
			tn, cRatios[tn], oRatios[tn], overload.rejected[tn])
		if tn != "flash" {
			steady = append(steady, oRatios[tn])
		}
	}
	// The flash aggressor is excluded: it demands several times its fair
	// share by construction, so equal *ratios* are not the goal for it.
	fmt.Printf("Jain's index over steady tenants: %.3f\n", sched.JainIndex(steady))
}
