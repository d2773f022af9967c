// Multipath replay: the striped-vs-single comparison harness behind
// `make multipath` and `detourd -replay multipath`. One Multipath
// call builds a world, measures every site/provider pair over each
// single route (direct, via each DTN), and then re-runs the same
// transfer striped across direct + detours through the scheduler's
// JobMultipath mode — all sequentially in one simulation, so every
// measurement sees an idle network and the same seeded topology.
//
// The paper's geometry predicts both outcomes this harness exposes:
// sites whose direct and detour paths bottleneck on disjoint links
// (UBC) gain nearly the sum of the lanes, while sites capped by a
// shared last-mile or access link (UCLA, Purdue) cannot gain at all —
// striping there must merely not lose (the MultipathGuard).
//
// Determinism: Workers is 1, the only randomness is the world seed, and
// the renderers iterate sorted data. Same seed ⇒ byte-identical report.

package replay

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// SingleLeg is one single-route baseline measurement.
type SingleLeg struct {
	Route   string
	Seconds float64
	Err     error
}

// PairOutcome compares one (client, provider) pair across modes.
type PairOutcome struct {
	Client, Provider string
	// Singles are the per-route baselines, in scenario.Routes() order.
	Singles []SingleLeg
	// BestRoute/BestSeconds is the fastest successful baseline.
	BestRoute   string
	BestSeconds float64
	// Striped is the JobMultipath result (Multipath report attached).
	Striped sched.Result
	// Speedup is BestSeconds / striped seconds (>1 = striping won).
	Speedup float64
}

// MultipathOutcome is one replay's complete, deterministic result set.
type MultipathOutcome struct {
	Pairs []PairOutcome
	Stats sched.Stats
}

// BestSpeedup returns the replay's largest per-pair speedup.
func (o MultipathOutcome) BestSpeedup() float64 {
	best := 0.0
	for _, pr := range o.Pairs {
		if pr.Speedup > best {
			best = pr.Speedup
		}
	}
	return best
}

// WorstSpeedup returns the replay's smallest per-pair speedup — the
// number the MultipathGuard is about.
func (o MultipathOutcome) WorstSpeedup() float64 {
	worst := 0.0
	for i, pr := range o.Pairs {
		if i == 0 || pr.Speedup < worst {
			worst = pr.Speedup
		}
	}
	return worst
}

// multipathJobSize is the bytes per transfer: 96 MB = 12 default
// chunks, enough for every lane to carry several.
const multipathJobSize = 96e6

// MultipathGuard is the striping floor, the ≤1.05×-worse guard: on no
// pair may the striped transfer's speedup over the best single route
// fall below 1/1.05 (the report prints it as 0.95x).
const MultipathGuard = 1 / 1.05

// Multipath replays the comparison once over every client/provider
// pair. See the file comment.
func Multipath(seed int64) MultipathOutcome {
	w := scenario.Build(seed)
	exec := sched.NewSimExecutor(w)
	defer exec.Close()

	// Results are read back mid-loop (after each Drain, before Close),
	// so the map needs its own lock: OnResult fires on the worker
	// goroutine.
	var resMu sync.Mutex
	results := make(map[string]sched.Result)
	s := sched.New(sched.Config{
		Workers:  1, // sequential ⇒ deterministic
		Executor: exec, Planner: exec,
		Now:   exec.VirtualNow,
		Sleep: exec.SleepVirtual,
		OnResult: func(r sched.Result) {
			resMu.Lock()
			results[r.Job.Name] = r
			resMu.Unlock()
		},
	})
	s.Start()

	var out MultipathOutcome
	for _, client := range scenario.Clients {
		for _, provider := range scenario.ProviderNames {
			pr := PairOutcome{Client: client, Provider: provider}
			// Single-route baselines, driven straight through the
			// executor: no queueing, no planning — pure path capacity.
			for ri, route := range scenario.Routes() {
				name := fmt.Sprintf("base-%s-%s-%d.bin", client, provider, ri)
				sec, err := exec.Execute(sched.Job{
					Tenant: "mp", Client: client, Provider: provider,
					Name: name, Size: multipathJobSize,
				}, route)
				leg := SingleLeg{Route: route.String(), Seconds: sec, Err: err}
				pr.Singles = append(pr.Singles, leg)
				if err == nil && (pr.BestSeconds == 0 || sec < pr.BestSeconds) {
					pr.BestRoute, pr.BestSeconds = leg.Route, sec
				}
			}
			// The striped run, through the control plane.
			name := fmt.Sprintf("mp-%s-%s.bin", client, provider)
			if err := s.Submit(sched.Job{
				Tenant: "mp", Client: client, Provider: provider,
				Name: name, Size: multipathJobSize, Mode: sched.JobMultipath,
			}); err != nil {
				panic(err)
			}
			s.Drain()
			resMu.Lock()
			pr.Striped = results[name]
			resMu.Unlock()
			if pr.Striped.Err == nil && pr.Striped.Seconds > 0 && pr.BestSeconds > 0 {
				pr.Speedup = pr.BestSeconds / pr.Striped.Seconds
			}
			out.Pairs = append(out.Pairs, pr)
		}
	}
	out.Stats = s.Stats()
	s.Close()
	sort.Slice(out.Pairs, func(i, j int) bool {
		if out.Pairs[i].Client != out.Pairs[j].Client {
			return out.Pairs[i].Client < out.Pairs[j].Client
		}
		return out.Pairs[i].Provider < out.Pairs[j].Provider
	})
	return out
}

// MultipathChurnOutcome is the churn leg: one striped transfer driven
// through the faults.ChurnSchedule storm.
type MultipathChurnOutcome struct{ Replay }

// Result is the striped transfer's outcome (zero when it never
// finished).
func (o MultipathChurnOutcome) Result() sched.Result {
	if len(o.Results) == 0 {
		return sched.Result{}
	}
	return o.Results[0]
}

// WithinResendBound reports whether every path's re-sent bytes stayed
// within the promise: at most one chunk per failure the churn inflicted
// on that path (a path that never failed must have re-sent nothing).
func (o MultipathChurnOutcome) WithinResendBound() bool {
	rep := o.Result().Multipath
	if rep == nil {
		return false
	}
	for _, pr := range rep.Paths {
		if pr.Rewritten > rep.Chunk*float64(pr.Failures) {
			return false
		}
	}
	return true
}

// MultipathChurn drives one large striped UBC->GoogleDrive transfer
// into the reconvergence storm (faults.ChurnSchedule: the first
// CANARIE~Google withdraw lands at t=60, mid-transfer) and reports how
// the chunk scheduler absorbed it. The transfer is 480 MB, long
// enough to still be in flight when the withdraw lands.
func MultipathChurn(seed int64) MultipathChurnOutcome {
	r := newRig(seed, faults.ChurnSchedule(), scenario.WithDynamicRouting())
	return MultipathChurnOutcome{r.run(fleet{jobs: []sched.Job{{
		Tenant: "mp-churn", Client: scenario.UBC,
		Provider: scenario.GoogleDrive,
		Name:     "mp-churn.bin", Size: 480e6, Mode: sched.JobMultipath,
	}}}, nil)}
}

// runMultipath renders the deterministic comparison report `detourd
// -replay multipath` prints and checks it with MultipathSanity.
func runMultipath(out io.Writer, seed int64) error {
	o, churn := Multipath(seed), MultipathChurn(seed)
	fmt.Fprintf(out, "Multipath: %d site/provider pairs, %.0f MB each, striped across direct + detours\n",
		len(o.Pairs), multipathJobSize/1e6)
	for _, pr := range o.Pairs {
		fmt.Fprintf(out, "%s -> %s\n", pr.Client, pr.Provider)
		for _, leg := range pr.Singles {
			if leg.Err != nil {
				fmt.Fprintf(out, "  single %-16s FAILED: %v\n", leg.Route, leg.Err)
				continue
			}
			fmt.Fprintf(out, "  single %-16s %7.1fs  %6.2f MB/s\n",
				leg.Route, leg.Seconds, multipathJobSize/leg.Seconds/1e6)
		}
		st := pr.Striped
		if st.Err != nil {
			fmt.Fprintf(out, "  striped FAILED: %v\n", st.Err)
			continue
		}
		fmt.Fprintf(out, "  striped %2d paths %6.1fs  %6.2f MB/s  %.2fx best single (%s)\n",
			len(st.Multipath.Paths), st.Seconds, multipathJobSize/st.Seconds/1e6, pr.Speedup, pr.BestRoute)
		for _, p := range st.Multipath.Paths {
			fmt.Fprintf(out, "    path %d %-16s %2d chunks  %6.1f MB  %6.2f MB/s\n",
				p.ID, "["+p.Route+"]", len(p.Chunks), p.Bytes/1e6, p.Rate()/1e6)
		}
	}
	fmt.Fprintf(out, "best speedup %.2fx, worst %.2fx (guard: never below %.2fx)\n",
		o.BestSpeedup(), o.WorstSpeedup(), MultipathGuard)
	fmt.Fprintf(out, "scheduler: %d striped jobs, %d hedged chunks, %d resent chunks, %.1f MB duplicated, fairness via per-path reports\n",
		o.Stats.MultipathJobs, o.Stats.MultipathHedged, o.Stats.MultipathResent,
		o.Stats.MultipathDuplicateBytes/1e6)

	fmt.Fprintln(out, "churn leg: one striped transfer vs the reconvergence storm")
	switch res := churn.Result(); {
	case res.Err != nil:
		fmt.Fprintf(out, "  FAILED: %v\n", res.Err)
	case res.Multipath == nil:
		fmt.Fprintln(out, "  degraded to single-path")
	default:
		rep := res.Multipath
		fmt.Fprintf(out, "  %.0f MB in %.1fs (%.2f MB/s), %d resent chunks, %.1f MB re-sent\n",
			rep.Size/1e6, rep.Seconds, rep.Rate()/1e6, rep.ResentChunks, res.Rewritten/1e6)
		for _, p := range rep.Paths {
			fmt.Fprintf(out, "  path %d %-16s %2d chunks  %2d fails  %2d drains  %6.1f MB re-sent\n",
				p.ID, "["+p.Route+"]", len(p.Chunks), p.Failures, p.Drains, p.Rewritten/1e6)
		}
		fmt.Fprintf(out, "  re-sent within one-chunk-per-failure bound per path: %v\n", churn.WithinResendBound())
	}
	return MultipathSanity(o, churn)
}

// MultipathSanity enforces what the report prints: every striped run
// completed on more than one lane, none ran below MultipathGuard of
// its best single route, and the churn leg re-sent at most one chunk
// per failure on every path.
func MultipathSanity(o MultipathOutcome, churn MultipathChurnOutcome) error {
	for _, pr := range o.Pairs {
		switch {
		case pr.Striped.Err != nil:
			return fmt.Errorf("pair %s->%s striped failed: %v", pr.Client, pr.Provider, pr.Striped.Err)
		case pr.Striped.Multipath == nil:
			return fmt.Errorf("pair %s->%s degraded to single-path", pr.Client, pr.Provider)
		case pr.Speedup < MultipathGuard:
			return fmt.Errorf("pair %s->%s striped at %.2fx its best single route, below the %.2fx guard",
				pr.Client, pr.Provider, pr.Speedup, MultipathGuard)
		}
		used := 0
		for _, p := range pr.Striped.Multipath.Paths {
			if len(p.Chunks) > 0 {
				used++
			}
		}
		if used < 2 {
			return fmt.Errorf("pair %s->%s used %d lanes", pr.Client, pr.Provider, used)
		}
	}
	if !churn.WithinResendBound() {
		return fmt.Errorf("churn leg re-sent more than one chunk per failure: %+v", churn.Result().Multipath)
	}
	return nil
}
