// Overload replay: a flash crowd hits the scheduler at several times
// the sustainable service rate — four steady tenants sync all day, a
// fifth tenant dumps a burst, and mid-burst the detour's first-hop
// link degrades. The identical trace runs twice: a control arm
// (unbounded queue, no shedding, no fairness, no hedging) and the
// stack arm (bounded queue with per-tenant quotas, CoDel-style
// queue-delay shedding, DRR fair queuing, hedged transfers, brownout
// degradation); the report compares goodput, per-tenant fairness
// (Jain's index), and queue delay.
//
// One worker, and arrivals ride the virtual clock (see feeder), so a
// fixed seed reproduces every shed, rejection, and hedge.

package replay

import (
	"fmt"
	"io"
	"math/rand"

	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/stats"
	"detournet/internal/workload"
)

// The flash-crowd trace: calm, burst, calm.
const (
	overloadCalm       = 40.0
	overloadBurst      = 160.0
	overloadEnd        = overloadCalm + overloadBurst + overloadCalm
	overloadSlack      = 45.0 // per-job deadline slack, seconds
	overloadSteadyRate = 0.2  // jobs/s per steady tenant
	overloadFlashRate  = 6.0  // jobs/s from the flash tenant during the burst
)

// overloadTrace lays the flash crowd over the steady fleet: each
// steady tenant is its own Poisson stream for the whole trace, the
// flash tenant follows the three-phase FlashCrowd schedule.
func overloadTrace(seed int64) []workload.FleetJob {
	rng := rand.New(rand.NewSource(seed))
	var parts [][]workload.FleetJob
	for ti := 0; ti < 4; ti++ {
		tn := fmt.Sprintf("steady-%d", ti)
		tr, err := workload.GenerateFleet(workload.FleetSpec{
			Jobs:    int(overloadSteadyRate * overloadEnd),
			Clients: []string{scenario.UBC}, Providers: []string{scenario.GoogleDrive},
			Tenants:  []string{tn},
			Sizes:    workload.Fixed{Bytes: 1e6},
			Arrivals: workload.Poisson{RatePerSec: overloadSteadyRate},
			Prefix:   tn, PriorityLevels: 1, DeadlineSlack: overloadSlack,
		}, rng)
		if err != nil {
			panic(err)
		}
		parts = append(parts, clipTrace(tr))
	}
	crowd, err := workload.NewFlashCrowd(
		workload.Phase{RatePerSec: 0.02, Seconds: overloadCalm},
		workload.Phase{RatePerSec: overloadFlashRate, Seconds: overloadBurst},
		workload.Phase{RatePerSec: 0.02},
	)
	if err != nil {
		panic(err)
	}
	flash, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:    int(overloadFlashRate*overloadBurst) + 40,
		Clients: []string{scenario.UBC}, Providers: []string{scenario.GoogleDrive},
		Tenants:  []string{"flash"},
		Sizes:    workload.Fixed{Bytes: 1e6},
		Arrivals: crowd,
		Prefix:   "flash", PriorityLevels: 1, DeadlineSlack: overloadSlack,
	}, rng)
	if err != nil {
		panic(err)
	}
	return workload.MergeFleet(append(parts, clipTrace(flash))...)
}

// clipTrace drops the arrivals after the trace's end.
func clipTrace(jobs []workload.FleetJob) []workload.FleetJob {
	out := jobs[:0]
	for _, j := range jobs {
		if j.At <= overloadEnd {
			out = append(out, j)
		}
	}
	return out
}

// overloadArm replays the flash-crowd trace through one arm.
func overloadArm(seed int64, trace []workload.FleetJob, stack bool) Replay {
	// Mid-burst, the detour's first hop (CANARIE Vancouver–Edmonton)
	// drops to 5% capacity: detour attempts stall past their learned
	// budget, and the stack arm hedges them onto the direct route.
	r := newRig(seed, []faults.Spec{{
		Kind: faults.LinkDegrade, From: "vncv1", To: "edmn1",
		Start: overloadCalm + overloadBurst/2, Duration: overloadBurst / 2, CapacityFactor: 0.05,
	}})
	return r.run(fleet{trace: trace}, func(r *rig) {
		r.cfg.MaxAttempts = 3
		if stack {
			r.cfg.QueueLimit = 100
			r.cfg.TenantQueueLimit = 80
			r.cfg.FairQueue = true
			r.cfg.DRRQuantumBytes = 1e6
			r.cfg.CoDelTarget = 6
			r.cfg.Hedge = true
			r.cfg.HedgeMinSamples = 4
			r.cfg.HedgeMaxFrac = 0.1
			r.cfg.BrownoutEnter = 0.8
		}
	})
}

// deadlineMet is the arm's goodput in bytes and its per-tenant ratio
// of deadline-met transfers to submission attempts.
func deadlineMet(o Replay, attempts map[string]int) (bytes float64, ratios map[string]float64) {
	done := map[string]float64{}
	for _, r := range o.Results {
		if r.Err == nil && !r.Late {
			bytes += r.Job.Size
			done[r.Job.Tenant]++
		}
	}
	ratios = map[string]float64{}
	for tn, n := range attempts {
		ratios[tn] = done[tn] / float64(n)
	}
	return bytes, ratios
}

// runOverload renders the control-vs-stack comparison. Every trace
// arrival is submitted exactly once, so the trace's per-tenant census
// is also each arm's submission attempts.
func runOverload(out io.Writer, seed int64) error {
	trace := overloadTrace(seed)
	control, stack := overloadArm(seed, trace, false), overloadArm(seed, trace, true)
	attempts := map[string]int{}
	for _, fj := range trace {
		attempts[fj.Tenant]++
	}
	tenants := sortedKeys(attempts)
	fmt.Fprintf(out, "Overload: %d jobs over %.0fs — calm %.0fs, burst %.0fs (flash tenant at %.0f jobs/s), calm %.0fs\n",
		len(trace), overloadEnd, overloadCalm, overloadBurst, overloadFlashRate, overloadCalm)
	for _, tn := range tenants {
		fmt.Fprintf(out, "  %-10s %4d jobs\n", tn, attempts[tn])
	}
	fmt.Fprintf(out, "control  run: %s\n", control.Stats)
	fmt.Fprintf(out, "overload run: %s\n", stack.Stats)

	cGood, cRatios := deadlineMet(control, attempts)
	sGood, sRatios := deadlineMet(stack, attempts)
	cs, ss := control.Stats, stack.Stats
	fmt.Fprintln(out)
	fmt.Fprintf(out, "goodput (deadline-met): control %.0f MB, overload %.0f MB (%.2fx)\n",
		cGood/1e6, sGood/1e6, sGood/cGood)
	fmt.Fprintf(out, "losses: control expired %d late %d | overload expired %d shed %d rejected %d late %d\n",
		cs.Expired, cs.Late, ss.Expired, ss.Shed, ss.QueueFullRejects+ss.TenantQuotaRejects, ss.Late)
	fmt.Fprintf(out, "queue delay p99: control %.1fs, overload %.1fs (CoDel EWMA at drain %.2fs)\n",
		cs.QueueDelayP99, ss.QueueDelayP99, ss.QueueDelayEWMA)
	fmt.Fprintf(out, "hedging: %d launched, %d won (control: %d)\n", ss.Hedges, ss.HedgeWins, cs.Hedges)
	fmt.Fprintf(out, "brownout: %d enters, %d exits; %d small jobs sent direct unplanned, %d stale cache serves\n",
		ss.BrownoutEnters, ss.BrownoutExits, ss.BrownoutDirect, ss.StaleServes)

	fmt.Fprintln(out, "per-tenant deadline-met ratio (of submission attempts):")
	var steady []float64
	for _, tn := range tenants {
		fmt.Fprintf(out, "  %-10s control %.2f   overload %.2f   (rejected %d)\n",
			tn, cRatios[tn], sRatios[tn], stack.Rejected[tn])
		if tn != "flash" {
			steady = append(steady, sRatios[tn])
		}
	}
	// The flash aggressor is excluded: it demands several times its fair
	// share by construction, so equal *ratios* are not the goal for it.
	fmt.Fprintf(out, "Jain's index over steady tenants: %.3f\n", stats.JainFairness(steady))
	return nil
}
