// Command detourd runs the transfer-scheduler control plane as a
// daemon against the simulated topology: it generates a multi-tenant
// fleet trace, admits it through per-tenant rate limits, drains it
// through the worker pool under per-provider and per-DTN concurrency
// caps, and logs periodic one-line status snapshots while it works —
// the operational mode the paper's per-invocation measurement programs
// stop short of.
//
// Usage:
//
//	detourd [-jobs 600] [-workers 8] [-seed 2015]
//	        [-provider-cap 4] [-dtn-cap 2] [-tenant-rate 0]
//	        [-stats 2s] [-chaos] [-overload]
//	detourd -replay NAME [-seed N]
//
// With -chaos, the canned fault schedule (see internal/faults) plays
// against the world while the trace drains: links flap and degrade,
// providers throw outages and error bursts, a DTN crashes. The
// scheduler runs with checkpointed resume and circuit breakers, retry
// backoff spends virtual time, and the final report adds recovery
// accounting, the breakers' states at drain and the first fault
// transitions. Failed jobs are expected under chaos and do not fail the
// process.
//
// With -overload, the full overload-control stack arms: a bounded
// queue with per-tenant quotas (the trace loop back-pressures through
// SubmitWait instead of dropping), CoDel-style queue-delay shedding,
// DRR fair queuing, hedged transfers, and brownout degradation. Every
// job gets a deadline of 60 virtual seconds from admission, so
// queue-rotted work expires instead of burning capacity.
// Shed and expired jobs are expected under overload and do not fail
// the process.
//
// With -replay NAME, the daemon instead runs one committed scenario
// replay (see internal/replay.Replays) at its committed seed, or at
// -seed when given, prints its deterministic report, and exits 1 if the
// replay's sanity check fails. Other scheduler flags are ignored in
// this mode. The replays:
//
// churn: the BGP reconvergence storm (internal/faults.ChurnSchedule)
// over one fleet, as an ablated control and with the full churn stack —
// staged convergence with transient blackholes, push-based route
// invalidation, make-before-break rerouting, parking, a DTN drain.
//
// grayfail: silent degradations (internal/faults.GrayfailSchedule)
// without and with the health stack — stall watchdogs, outlier
// ejection with canary re-admission, per-provider retry budgets.
//
// pressure: storage exhaustion (internal/faults.PressureSchedule)
// without and with the mitigation ladder — LRU eviction, spill-aware
// placement, quota reclamation, provider spill, journal degradation.
//
// crashsafe: a journaled scheduler killed at every control-plane crash
// point, restarted on its journal, and required to converge
// byte-identical to the crash-free control with zero duplicate
// commits, plus the storage-decay arm.
//
// multipath: every site/provider pair over each single route and then
// striped across direct + detours, plus one large striped transfer
// driven into the reconvergence storm; its sanity check fails when a
// striped pair fails or takes over 1.05x its best single route's
// time, or the storm leg re-sends more than one chunk per path
// failure.
//
// overload: a flash crowd at several times the sustainable service
// rate over four steady tenants, with the detour's first hop degraded
// mid-burst, as an unbounded control and with the overload-control
// stack — bounded per-tenant queues, CoDel shedding, fair queuing,
// hedging, brownout — compared on deadline-met goodput, per-tenant
// fairness and queue delay.
//
// telemetry: an instrumented flash crowd through the reconvergence
// storm — live telemetry lines, the operator dashboard, then the full
// report (time series, failed-job decision traces, Prometheus dump).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"detournet/internal/faults"
	"detournet/internal/replay"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/workload"
)

func main() {
	var (
		jobs        = flag.Int("jobs", 600, "jobs in the generated fleet trace")
		workers     = flag.Int("workers", 8, "worker-pool size")
		seed        = flag.Int64("seed", 2015, "world and trace seed")
		providerCap = flag.Int("provider-cap", 4, "max concurrent transfers per provider (-1 = unlimited)")
		dtnCap      = flag.Int("dtn-cap", 2, "max concurrent detour transfers per DTN (-1 = unlimited)")
		tenantRate  = flag.Float64("tenant-rate", 0, "admitted jobs/sec per tenant (0 = unlimited)")
		statsEvery  = flag.Duration("stats", 2*time.Second, "status-line interval (0 = quiet)")
		chaos       = flag.Bool("chaos", false, "replay the canned fault schedule while draining")
		overload    = flag.Bool("overload", false, "arm admission control, fair queuing, shedding, hedging, and brownout")
		replay      = flag.String("replay", "", "run the named committed replay and print its report")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay, *seed))
	}

	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:    *jobs,
		Clients: scenario.Clients,
		Providers: []string{
			scenario.GoogleDrive, scenario.Dropbox, scenario.OneDrive,
		},
	}, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "detourd: %v\n", err)
		os.Exit(2)
	}

	w := scenario.Build(*seed)
	exec := sched.NewSimExecutor(w)
	defer exec.Close()
	cfg := sched.Config{
		Workers: *workers, Executor: exec, Planner: exec,
		ProviderCap: *providerCap, DTNCap: *dtnCap,
		TenantRate: *tenantRate,
	}
	var inj *faults.Injector
	if *chaos {
		inj = faults.NewInjector(w, *seed, faults.CannedSchedule()...)
		// Backoff must spend virtual time so retries interact with the
		// fault windows; a few extra attempts ride out outage windows.
		cfg.Now, cfg.Sleep = exec.VirtualNow, exec.SleepVirtual
		cfg.MaxAttempts = 5
	}
	const deadlineSlack = 60.0 // virtual seconds from admission
	if *overload {
		cfg.Now, cfg.Sleep = exec.VirtualNow, exec.SleepVirtual
		cfg.QueueLimit = 16 * *workers
		cfg.TenantQueueLimit = 8 * *workers
		cfg.FairQueue = true
		cfg.CoDelTarget = 10
		cfg.Hedge = true
		cfg.BrownoutEnter = 0.8
	}
	s := sched.New(cfg)
	s.Start()
	defer s.Close()

	fmt.Printf("detourd: %d jobs, %d workers, provider-cap=%d dtn-cap=%d tenant-rate=%g\n",
		len(trace), *workers, *providerCap, *dtnCap, *tenantRate)

	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for {
				select {
				case <-ticker.C:
					fmt.Printf("detourd: %s\n", s.Stats())
				case <-stop:
					return
				}
			}
		}()
	}

	admitted := 0
	for _, fj := range trace {
		j := sched.Job{
			Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider,
			Name: fj.Name, Size: fj.Size, Priority: fj.Priority,
		}
		// A rate-limited tenant's job waits for its bucket to refill
		// rather than being dropped: the daemon back-pressures the trace.
		for {
			var err error
			if *overload {
				// The bounded queue back-pressures through SubmitWait:
				// a full queue blocks the trace instead of dropping it.
				// Deadlines run from admission, so work that rots in the
				// queue expires instead of burning transfer capacity.
				j.Deadline = exec.VirtualNow() + deadlineSlack
				err = s.SubmitWait(j)
			} else {
				err = s.Submit(j)
			}
			if err == nil {
				admitted++
				break
			}
			if err != sched.ErrRateLimited {
				fmt.Fprintf(os.Stderr, "detourd: submit %s: %v\n", fj.Name, err)
				os.Exit(1)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	s.Drain()

	st := s.Stats()
	fmt.Printf("detourd: drained — %s\n", st)
	fmt.Printf("  admitted %d of %d; %d retries, %d detour->direct fallbacks, %d cache invalidations\n",
		admitted, len(trace), st.Retries, st.Fallbacks, st.CacheInvalidations)
	fmt.Printf("  route cache: %d probes served %d route decisions\n",
		st.CacheMisses, st.CacheHits+st.CacheMisses)
	fmt.Printf("  virtual time: %.1f s of simulated transfer activity\n", exec.VirtualNow())
	if inj != nil {
		fmt.Printf("  chaos: %d fault transitions; %d failovers, %d breaker diversions, %d breaker transitions\n",
			inj.Injected, st.Failovers, st.BreakerSkips, st.BreakerTransitions)
		fmt.Printf("  recovery: %.1f MB resumed from checkpoints, %.1f MB rewritten\n",
			st.BytesResumed/1e6, st.BytesRewritten/1e6)
		fmt.Println("  breakers at drain:")
		for _, k := range sortedKeys(st.Breakers) {
			fmt.Printf("    %-32s %s\n", k, st.Breakers[k])
		}
		fmt.Println("  fault timeline (first 12 transitions):")
		trs := inj.Transitions()
		for i, tr := range trs {
			if i == 12 {
				fmt.Printf("    ... %d more\n", len(trs)-12)
				break
			}
			fmt.Printf("    %s\n", tr)
		}
	}
	if *overload {
		fmt.Printf("  overload: %d shed, %d expired, %d late; queue delay p99 %.1fs\n",
			st.Shed, st.Expired, st.Late, st.QueueDelayP99)
		fmt.Printf("  hedging: %d launched, %d won; brownout %d enters / %d exits, %d direct serves, %d stale cache serves\n",
			st.Hedges, st.HedgeWins, st.BrownoutEnters, st.BrownoutExits, st.BrownoutDirect, st.StaleServes)
	}

	fmt.Println("  per-route totals:")
	for _, r := range sortedKeys(st.PerRoute) {
		rs := st.PerRoute[r]
		fmt.Printf("    %-16s %4d jobs  %8.1f MB  %6.2f MB/s\n",
			r, rs.Jobs, rs.Bytes/1e6, rs.Throughput()/1e6)
	}
	fmt.Println("  concurrency peaks (cap enforcement high-water marks):")
	for _, p := range sortedKeys(st.ProviderPeak) {
		fmt.Printf("    provider %-12s peak %d\n", p, st.ProviderPeak[p])
	}
	for _, d := range sortedKeys(st.DTNPeak) {
		fmt.Printf("    dtn      %-12s peak %d\n", d, st.DTNPeak[d])
	}
	if st.Failed > 0 && !*chaos && !*overload {
		os.Exit(1)
	}
}

// runReplay runs one entry of replay.Replays; -seed overrides the
// entry's committed seed only when given explicitly.
func runReplay(name string, seed int64) int {
	e, ok := replay.Replays[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "detourd: unknown replay %q (have %s)\n", name, strings.Join(sortedKeys(replay.Replays), ", "))
		return 2
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			e.Seed = seed
		}
	})
	if err := e.Run(os.Stdout, e.Seed); err != nil {
		fmt.Fprintf(os.Stderr, "detourd: %s: %v\n", name, err)
		return 1
	}
	return 0
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
