package sched_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"detournet/internal/multipath"
	"detournet/internal/replay"
	"detournet/internal/rsyncx"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
)

// The control plane's acceptance tests, driven through the committed
// scenario replays (internal/replay): each asserts the mitigation
// stack's claim at a fixed seed, on the same runs the replay reports
// print.

// TestReplaysDeterministic: every committed replay, run twice at its
// committed seed, prints byte-identical output and passes its own
// sanity check — the property `make check` re-verifies across
// processes through detourd -replay.
func TestReplaysDeterministic(t *testing.T) {
	names := make([]string, 0, len(replay.Replays))
	for name := range replay.Replays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := replay.Replays[name]
		t.Run(name, func(t *testing.T) {
			if name == "crashsafe" && testing.Short() {
				t.Skip("two full crash-point sweeps")
			}
			render := func(seed int64) string {
				var b bytes.Buffer
				if err := e.Run(&b, seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return b.String()
			}
			a, b := render(e.Seed), render(e.Seed)
			if a != b {
				t.Fatalf("same-seed replays diverged:\n--- run 1\n%s--- run 2\n%s", a, b)
			}
			if name == "churn" && render(7) == a {
				t.Fatal("different seeds produced identical reports; the storm ignores its seed")
			}
		})
	}
}

// TestChurnAcceptance is the PR's headline claim, asserted at the
// replay's committed seed: of the transfers the storm touches, the
// control run (one attempt, no recovery) fails at least half, the full
// stack saves at least 95%, and the bytes re-sent stay within one
// checkpoint chunk per reroute/retry/failover.
func TestChurnAcceptance(t *testing.T) {
	v := replay.Churn(2015)
	stack := v.Stack

	if v.Affected == 0 {
		t.Fatal("storm touched no transfers; the schedule missed the fleet")
	}
	if got := v.ControlFailRate(); got < 0.50 {
		t.Errorf("control failure rate = %.0f%%, want >= 50%% (failed %d of %d affected)",
			100*got, v.ControlFailed, v.Affected)
	}
	if got := v.StackSurvivalRate(); got < 0.95 {
		t.Errorf("stack survival rate = %.0f%%, want >= 95%% (survived %d of %d affected)",
			100*got, v.StackSurvived, v.Affected)
	}
	if v.ResentBytes > v.ResentBudget {
		t.Errorf("re-sent %.1f MB exceeds the make-before-break budget %.1f MB",
			v.ResentBytes/1e6, v.ResentBudget/1e6)
	}
	if stack.Stats.Reroutes == 0 {
		t.Error("stack run recorded no make-before-break reroutes")
	}
	if stack.Stats.Parks == 0 || stack.Stats.ParkSeconds <= 0 {
		t.Errorf("stack run recorded no parking (parks=%d, %.0fs); the blackhole window went unexercised",
			stack.Stats.Parks, stack.Stats.ParkSeconds)
	}
	if stack.Stats.RouteEvents == 0 || stack.Stats.RouteConverges == 0 {
		t.Errorf("invalidation bus idle: %d events, %d converges",
			stack.Stats.RouteEvents, stack.Stats.RouteConverges)
	}
	if len(stack.Events) == 0 {
		t.Error("no routing-plane events recorded")
	}
}

// TestGrayfailAcceptance is the PR's acceptance gate for seed 2015: the
// health stack completes the fleet with materially better goodput than
// the no-health ablation, every silent degradation window is
// detected by a watchdog abort within a bounded latency, and the
// mitigation machinery (stalls, reroutes, canaries, metered retries)
// demonstrably ran.
func TestGrayfailAcceptance(t *testing.T) {
	control, stack := replay.Grayfail(2015)
	if control.Failed() != 0 || stack.Failed() != 0 {
		t.Fatalf("failures: control %d, stack %d — gray failures must not hard-fail jobs", control.Failed(), stack.Failed())
	}
	if s := stack.Goodput() / control.Goodput(); s < 1.2 {
		t.Errorf("speedup = %.3fx, want >= 1.2x (control %.0fs, stack %.0fs)",
			s, control.VirtualSeconds, stack.VirtualSeconds)
	}
	if len(stack.Detections) != 2 {
		t.Fatalf("detections = %+v, want the provider-slow and dtn-disk-slow windows", stack.Detections)
	}
	for _, d := range stack.Detections {
		if d.DetectedAt < 0 {
			t.Errorf("%s window at t=%.0f never detected", d.Fault, d.Start)
			continue
		}
		// The bound: one DefaultBudget is the worst admissible first
		// catch; in practice the adaptive budgets land far below it.
		if lat := d.Latency(); lat > 600 {
			t.Errorf("%s detection latency %.1fs, want <= 600", d.Fault, lat)
		}
	}
	if stack.Stats.Stalls == 0 || stack.Stats.StallReroutes == 0 {
		t.Errorf("stalls=%d reroutes=%d, want the watchdog to have fired and rerouted", stack.Stats.Stalls, stack.Stats.StallReroutes)
	}
	if stack.Stats.Canaries == 0 {
		t.Error("no canary probes ran — probation re-admission untested by the replay")
	}
	if len(stack.Health) == 0 {
		t.Error("no health transitions recorded")
	}
	// Retries stayed within the metered budget: something was spent,
	// nothing exceeded the bucket (Tokens never goes negative and Spent
	// minus earn-backs is bounded by the burst, which denial enforces).
	spent := 0
	for _, b := range stack.Budgets {
		spent += b.Spent
		if b.Tokens < 0 {
			t.Errorf("provider %s bucket at %.1f tokens — overdrawn", b.Provider, b.Tokens)
		}
	}
	if spent == 0 {
		t.Error("retry budget never spent — the hard-error burst should meter at least one retry")
	}
	// The ablation, blind to gray failures, must show none of this.
	if control.Stats.Stalls != 0 || control.Stats.Canaries != 0 || len(control.Health) != 0 {
		t.Errorf("ablation ran health machinery: %+v", control.Stats)
	}
}

// The full sweep (control + 11 legs) is deterministic and shared by
// every acceptance test below: run it once.
var (
	sweepOnce    sync.Once
	sweepControl replay.CrashsafeOutcome
	sweepLegs    []replay.SweepLeg
)

func crashsafeSweep(t *testing.T) (replay.CrashsafeOutcome, []replay.SweepLeg) {
	t.Helper()
	sweepOnce.Do(func() { sweepControl, sweepLegs = replay.CrashsafeSweep(7) })
	return sweepControl, sweepLegs
}

func TestCrashsafeControlArm(t *testing.T) {
	control, _ := crashsafeSweep(t)
	if control.Crashed {
		t.Fatal("control arm crashed")
	}
	if got := control.Done(); got != 60 {
		t.Fatalf("control done = %d, want 60", got)
	}
	if got := len(control.Listing); got != 60 {
		t.Fatalf("control listing = %d objects, want 60", got)
	}
	if control.Compactions < 1 {
		t.Fatal("control run never compacted the journal")
	}
	if control.MaxCommits != 1 {
		t.Fatalf("control MaxCommits = %d, want 1", control.MaxCommits)
	}
	if control.IntegrityRetries != 0 {
		t.Fatalf("control IntegrityRetries = %d, want 0", control.IntegrityRetries)
	}
}

// TestCrashsafeSweepAcceptance is the tentpole's acceptance gate: a
// scheduler killed at ANY enumerated crash point (plus the bit-rot
// restart and the corrupted-journal leg) restarts, replays, and
// completes the fleet byte-identical with zero duplicate provider
// commits and a bounded re-send cost.
func TestCrashsafeSweepAcceptance(t *testing.T) {
	_, legs := crashsafeSweep(t)
	// Re-send bound: a crash costs at most a rewind of in-flight work —
	// never a whole-fleet rewrite. The bit-rot leg re-fetches exactly
	// the corrupted chunks (2), so two manifest chunks plus slack.
	maxResent := float64(2*rsyncx.ManifestChunk) + 1e5
	for _, l := range legs {
		o := l.Outcome
		if !o.Crashed {
			t.Errorf("%s: kill never fired", l)
			continue
		}
		if got := o.Done(); got != 60 {
			t.Errorf("%s: done = %d, want 60", l, got)
		}
		if got := len(o.Results); got != 60 {
			t.Errorf("%s: results = %d, want 60", l, got)
		}
		names := make(map[string]bool, len(o.Results))
		for _, r := range o.Results {
			if names[r.Job.Name] {
				t.Errorf("%s: duplicate result for %s", l, r.Job.Name)
			}
			names[r.Job.Name] = true
		}
		if !l.Identical {
			t.Errorf("%s: provider listing diverged from control", l)
		}
		if o.MaxCommits != 1 {
			t.Errorf("%s: MaxCommits = %d, want 1 (duplicate provider commit)", l, o.MaxCommits)
		}
		if o.IntegrityRetries != 0 {
			t.Errorf("%s: IntegrityRetries = %d, want 0 (whole-transfer discard)", l, o.IntegrityRetries)
		}
		if l.Resent > maxResent {
			t.Errorf("%s: resent %.0f B > bound %.0f B", l, l.Resent, maxResent)
		}
	}
}

// TestCrashsafeCoverage asserts the sweep actually exercises every
// enumerated crash point — a point nothing reaches is dead injection.
func TestCrashsafeCoverage(t *testing.T) {
	_, legs := crashsafeSweep(t)
	totals := make(map[string]int)
	for _, l := range legs {
		for pt, n := range l.Outcome.Hits {
			totals[pt] += n
		}
	}
	for _, pt := range sched.CrashPoints() {
		if totals[pt] == 0 {
			t.Errorf("crash point %q never reached across the sweep", pt)
		}
	}
}

// TestCrashsafeBitRotRepair pins the chunk-level repair contract: a
// decayed-disk restart re-fetches only the damaged chunks and never
// falls back to whole-transfer discard.
func TestCrashsafeBitRotRepair(t *testing.T) {
	_, legs := crashsafeSweep(t)
	found := false
	for _, l := range legs {
		if !l.BitRot {
			continue
		}
		found = true
		o := l.Outcome
		if o.RottedChunks == 0 {
			t.Fatalf("%s: no chunks rotted — the leg tests nothing", l)
		}
		if o.ChunkRepairs == 0 {
			t.Errorf("%s: ChunkRepairs = 0, want > 0", l)
		}
		if o.ChunkRepairs != o.RottedChunks {
			t.Errorf("%s: ChunkRepairs = %d, RottedChunks = %d — repair granularity drifted",
				l, o.ChunkRepairs, o.RottedChunks)
		}
		if o.IntegrityRetries != 0 {
			t.Errorf("%s: IntegrityRetries = %d, want 0", l, o.IntegrityRetries)
		}
		// The re-send cost is the repaired chunks, not the transfer.
		bound := float64(o.ChunkRepairs*rsyncx.ManifestChunk) + 1e5
		if l.Resent > bound {
			t.Errorf("%s: resent %.0f B > %d repaired chunks (%.0f B)",
				l, l.Resent, o.ChunkRepairs, bound)
		}
	}
	if !found {
		t.Fatal("sweep has no bit-rot leg")
	}
}

// TestCrashsafeJournalRot pins recovery from a damaged journal: bit
// rot flips log bytes mid-run, a torn append kills the control plane,
// and the restart — holding only the longest valid prefix — still
// converges byte-identical with no duplicate commits (the lost-record
// window is covered by the provider precheck).
func TestCrashsafeJournalRot(t *testing.T) {
	_, legs := crashsafeSweep(t)
	found := false
	for _, l := range legs {
		if !l.JournalFaults {
			continue
		}
		found = true
		o := l.Outcome
		if !o.Crashed {
			t.Fatal("journal-faults leg: torn append never killed")
		}
		if o.TruncatedBytes == 0 {
			t.Errorf("journal-faults leg: replay truncated nothing — the rot missed the log")
		}
		if !l.Identical || o.MaxCommits != 1 {
			t.Errorf("journal-faults leg: identical=%v maxCommits=%d",
				l.Identical, o.MaxCommits)
		}
	}
	if !found {
		t.Fatal("sweep has no journal-faults leg")
	}
}

// TestCrashsafeDeterminism runs the storage-decay arm twice from
// independent worlds: same seed, same binary ⇒ the same counters,
// provider listing and repair accounting the decay report prints.
// (The printed reports are covered by TestReplaysDeterministic.)
func TestCrashsafeDeterminism(t *testing.T) {
	summary := func() string {
		o := replay.Crashsafe(replay.CrashsafeOptions{Seed: 7, Decay: true})
		return fmt.Sprintf("%s | %q | repairs %d integrity %d resumed %.0f rewritten %.0f faults %d | %g",
			o.Stats, o.Listing, o.ChunkRepairs, o.IntegrityRetries,
			o.ResumedBytes, o.RewrittenBytes, len(o.Faults), o.VirtualSeconds)
	}
	if a, b := summary(), summary(); a != b {
		t.Fatalf("decay arm not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestCrashsafeDecay runs the storage-decay arm: DTN torn writes, a
// mid-fleet DTN crash, and staged-chunk rot under a live journal. The
// fleet must still converge exactly once per object.
func TestCrashsafeDecay(t *testing.T) {
	o := replay.Crashsafe(replay.CrashsafeOptions{Seed: 7, Decay: true})
	if got := o.Done(); got != 60 {
		t.Fatalf("decay done = %d, want 60", got)
	}
	if o.MaxCommits != 1 {
		t.Fatalf("decay MaxCommits = %d, want 1", o.MaxCommits)
	}
	if len(o.Faults) == 0 {
		t.Fatal("decay arm injected nothing")
	}
}

// TestCrashsafeFileDevice runs the torn-append kill against a real
// file-backed journal: the torn tail hits the filesystem and the
// restart truncates it in place.
func TestCrashsafeFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "control.wal")
	o := replay.Crashsafe(replay.CrashsafeOptions{
		Seed:         7,
		CrashsafeLeg: sched.CrashsafeLeg{Point: sched.CrashTornAppend, Occurrence: 600},
		JournalPath:  path,
	})
	if !o.Crashed {
		t.Fatal("file-backed torn-append never fired")
	}
	if o.TruncatedBytes == 0 {
		t.Fatal("file-backed replay truncated nothing")
	}
	control, _ := crashsafeSweep(t)
	if identical := reflect.DeepEqual(control.Listing, o.Listing); !identical || o.MaxCommits != 1 {
		t.Fatalf("file-backed leg: identical=%v maxCommits=%d", identical, o.MaxCommits)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("journal file missing or empty: %v", err)
	}
}

// TestCrashsafeSweepReplayEqualsLive: once the crash sweep's control
// arm and each of its legs has run, replaying the surviving journal
// recovers exactly the last incarnation's live fold.
func TestCrashsafeSweepReplayEqualsLive(t *testing.T) {
	control, legs := crashsafeSweep(t)
	if err := sched.ReplayMismatch(control.Journal); err != nil {
		t.Errorf("control: %v", err)
	}
	for _, l := range legs {
		if err := sched.ReplayMismatch(l.Outcome.Journal); err != nil {
			t.Errorf("%s: %v", l, err)
		}
	}
}

// TestMultipathAcceptance pins the acceptance numbers at seed 2015:
// striping beats the best single path by >=1.4x on at least one pair,
// never lands below replay.MultipathGuard of it on any pair, no pair
// silently degrades to a single lane, and the churn leg stays within
// its re-send bound.
func TestMultipathAcceptance(t *testing.T) {
	o := replay.Multipath(2015)
	if err := replay.MultipathSanity(o, replay.MultipathChurn(2015)); err != nil {
		t.Fatalf("sanity: %v", err)
	}
	if best := o.BestSpeedup(); best < 1.4 {
		t.Errorf("best speedup %.2fx, want >= 1.4x", best)
	}
	if worst := o.WorstSpeedup(); worst < replay.MultipathGuard {
		t.Errorf("worst speedup %.2fx, want >= %.2fx", worst, replay.MultipathGuard)
	}
	if o.Stats.MultipathJobs != int64(len(o.Pairs)) {
		t.Errorf("MultipathJobs = %d, want %d", o.Stats.MultipathJobs, len(o.Pairs))
	}
	if o.Stats.MultipathDegraded != 0 {
		t.Errorf("MultipathDegraded = %d, want 0", o.Stats.MultipathDegraded)
	}
	for _, pr := range o.Pairs {
		if pr.Striped.Err != nil {
			t.Errorf("%s->%s striped failed: %v", pr.Client, pr.Provider, pr.Striped.Err)
			continue
		}
		sched.ChunkCoverage(t, pr.Striped.Multipath)
	}
}

// TestMultipathChurnBound drives the 480 MB churn leg across several
// seeds: the transfer must complete, cover every chunk exactly once,
// and keep re-sent bytes within one chunk per failure on every path.
func TestMultipathChurnBound(t *testing.T) {
	for _, seed := range []int64{7, 42, 2015} {
		c := replay.MultipathChurn(seed)
		if c.Result().Err != nil {
			t.Fatalf("seed %d: churn transfer failed: %v", seed, c.Result().Err)
		}
		rep := c.Result().Multipath
		if rep == nil {
			t.Fatalf("seed %d: degraded to single-path under churn", seed)
		}
		sched.ChunkCoverage(t, rep)
		if !c.WithinResendBound() {
			t.Errorf("seed %d: re-sent bytes exceed one chunk per failure: %+v", seed, rep.Paths)
		}
		sizes := multipath.Layout(rep.Size, rep.Chunk, len(rep.Paths), rep.TailSplit)
		if len(sizes) != rep.NumChunks {
			t.Errorf("seed %d: Layout gives %d chunks, report says %d", seed, len(sizes), rep.NumChunks)
		}
		var sum float64
		for _, sz := range sizes {
			sum += sz
		}
		if sum != rep.Size {
			t.Errorf("seed %d: Layout covers %.0f of %.0f bytes", seed, sum, rep.Size)
		}
	}
	// At the pinned seed the first withdraw (t=60) is guaranteed to
	// land mid-transfer; the scheduler must have actually absorbed it.
	c := replay.MultipathChurn(2015)
	rep := c.Result().Multipath
	if rep == nil {
		t.Fatal("seed 2015: no multipath report")
	}
	churned := 0
	for _, pr := range rep.Paths {
		churned += pr.Failures + pr.Drains
	}
	if churned == 0 {
		t.Error("seed 2015: churn storm caused no failures or drains — schedule not exercised")
	}
}

// TestMultipathDeterminismRegression: the same seed must produce
// identical per-path chunk assignments across independent runs. The
// report text's determinism is TestReplaysDeterministic/multipath.
func TestMultipathDeterminismRegression(t *testing.T) {
	run := func() (replay.MultipathOutcome, replay.MultipathChurnOutcome) {
		return replay.Multipath(2015), replay.MultipathChurn(2015)
	}
	o1, c1 := run()
	o2, c2 := run()
	for i := range o1.Pairs {
		m1, m2 := o1.Pairs[i].Striped.Multipath, o2.Pairs[i].Striped.Multipath
		if m1 == nil || m2 == nil {
			t.Fatalf("pair %d: missing multipath report", i)
		}
		for j := range m1.Paths {
			if !reflect.DeepEqual(m1.Paths[j].Chunks, m2.Paths[j].Chunks) {
				t.Errorf("pair %s->%s path %d: chunk assignment differs: %v vs %v",
					o1.Pairs[i].Client, o1.Pairs[i].Provider, j, m1.Paths[j].Chunks, m2.Paths[j].Chunks)
			}
		}
	}
	r1, r2 := c1.Result().Multipath, c2.Result().Multipath
	if r1 == nil || r2 == nil || !reflect.DeepEqual(r1.Paths, r2.Paths) {
		t.Error("churn leg per-path reports differ across runs of the same seed")
	}
}

// TestTelemetryRunDeterministic: same seed ⇒ byte-identical
// Prometheus, JSON, and CSV dumps — the observability plane inherits
// the repo's determinism contract. The report text's determinism is
// TestReplaysDeterministic/telemetry.
func TestTelemetryRunDeterministic(t *testing.T) {
	render := func() (prom, js, csv string) {
		o := replay.Telemetry(7, true, nil)
		var p, j, c bytes.Buffer
		if err := o.Snapshot.WritePrometheus(&p); err != nil {
			t.Fatal(err)
		}
		if err := o.Snapshot.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := o.Snapshot.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return p.String(), j.String(), c.String()
	}
	p1, j1, c1 := render()
	p2, j2, c2 := render()
	if p1 != p2 {
		t.Error("same-seed prometheus dumps differ")
	}
	if j1 != j2 {
		t.Error("same-seed JSON dumps differ")
	}
	if c1 != c2 {
		t.Error("same-seed CSV dumps differ")
	}
}

// TestTelemetryMetricsMatchStats: the registry and Stats are folded by
// the same note calls — every exported counter must agree.
func TestTelemetryMetricsMatchStats(t *testing.T) {
	o := replay.Telemetry(7, true, nil)
	sched.CheckMetricsMatchStats(t, o.Snapshot, o.Stats)
	// Route byte totals must cover exactly the delivered bytes.
	var routeBytes, delivered float64
	for _, f := range o.Snapshot.Families {
		if f.Name == "sched_route_bytes_total" {
			for _, m := range f.Metrics {
				routeBytes += m.Value
			}
		}
	}
	for _, r := range o.Results {
		if r.Err == nil {
			delivered += r.Job.Size
		}
	}
	if routeBytes != delivered {
		t.Errorf("route bytes %g != delivered %g", routeBytes, delivered)
	}
	if o.Samples == 0 || len(o.Series) == 0 {
		t.Fatalf("sampler recorded nothing: %d samples, %d series", o.Samples, len(o.Series))
	}
	for _, ss := range o.Series {
		if len(ss.Values) != o.Samples && ss.Dropped == 0 {
			t.Errorf("series %s has %d points, want %d", ss.Name, len(ss.Values), o.Samples)
		}
	}
}

// TestTelemetryFlightRecorderNamesDecisions: a failed transfer's trace
// must name the control-plane decisions hop by hop — election, attempts,
// parking/rerouting, and the failure classification.
func TestTelemetryFlightRecorderNamesDecisions(t *testing.T) {
	o := replay.Telemetry(7, true, nil)
	if o.Stats.Failed == 0 {
		t.Fatal("the thin-stack storm replay should fail at least one job")
	}
	var failed *telemetry.JobTrace
	for i := range o.Traces {
		if o.Traces[i].Failed {
			failed = &o.Traces[i]
			break
		}
	}
	if failed == nil {
		t.Fatal("no failed trace retained")
	}
	kinds := map[string]int{}
	for _, ev := range failed.Events {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"job.elect", "job.attempt", "job.fail", "job.failed"} {
		if kinds[want] == 0 {
			t.Errorf("failed trace %s missing %q events (have %v)", failed.Job, want, kinds)
		}
	}
	if kinds["job.reroute"] == 0 && kinds["job.park"] == 0 {
		t.Errorf("failed trace %s shows neither a reroute nor a park (have %v)", failed.Job, kinds)
	}
	// Successes are truncated: counted, but no decision events retained.
	for _, tr := range o.Traces {
		if !tr.Failed && len(tr.Events) != 0 {
			t.Errorf("success trace %s kept %d events, want 0", tr.Job, len(tr.Events))
		}
	}
}

// TestTelemetryNoObserverEffect: attaching the telemetry plane must not
// change what the scheduler does — the instrumented and bare replays of
// the same storm deliver identical results on the virtual timeline.
func TestTelemetryNoObserverEffect(t *testing.T) {
	inst := replay.Telemetry(7, true, nil)
	bare := replay.Telemetry(7, false, nil)
	if len(bare.Results) != len(inst.Results) {
		t.Fatalf("result counts differ: bare %d, instrumented %d", len(bare.Results), len(inst.Results))
	}
	for i := range inst.Results {
		a, b := inst.Results[i], bare.Results[i]
		if a.Job.Name != b.Job.Name || (a.Err == nil) != (b.Err == nil) ||
			a.Seconds != b.Seconds || a.Attempts != b.Attempts || a.Route != b.Route {
			t.Fatalf("result %d diverged: instrumented %+v, bare %+v", i, a, b)
		}
	}
	if inst.VirtualSeconds != bare.VirtualSeconds {
		t.Errorf("virtual spans differ: %g vs %g", inst.VirtualSeconds, bare.VirtualSeconds)
	}
	if len(bare.Series) != 0 || bare.Snapshot.Families != nil || bare.Traces != nil {
		t.Errorf("bare run leaked observability state: %d series", len(bare.Series))
	}
}

// TestTelemetryOverheadGuard asserts the telemetry plane costs under 5%
// of wall time on the reference storm drain — the representative
// scheduler workload, where per-job control-plane work (planning,
// journaling, virtual transfers) is real. Bare and instrumented rounds
// alternate in pairs, each pair flipping which arm runs first, and the
// guard compares the median paired difference against the median bare
// round: host drift (other test binaries sharing the CPUs under a
// parallel `go test ./...`) lands on both arms of a pair instead of on
// one whole arm. It re-measures before failing so a preempted run
// can't flake the suite. Skipped under the race detector, whose
// uniform slowdown distorts timing. The pure-dispatch cost per job is
// tracked separately by BenchmarkDrainBare/BenchmarkDrainInstrumented.
func TestTelemetryOverheadGuard(t *testing.T) {
	if sched.RaceEnabled {
		t.Skip("overhead guard is a timing test; race instrumentation distorts it")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	// The drain is sequential (one worker on a cooperatively scheduled
	// engine), so one P measures it without cross-core wake-up jitter,
	// and the instrumented arm's extra GC work counts in full instead of
	// hiding on an idle core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const pairs = 100
	round := func(bare bool) time.Duration {
		start := time.Now()
		replay.Telemetry(7, !bare, nil)
		return time.Since(start)
	}
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return ds[len(ds)/2]
	}
	for attempt := 0; attempt < 3; attempt++ {
		var bare, diff []time.Duration
		for i := 0; i < pairs; i++ {
			runtime.GC() // no pair pays for the previous one's garbage
			var b, inst time.Duration
			if i%2 == 0 {
				b = round(true)
				inst = round(false)
			} else {
				inst = round(false)
				b = round(true)
			}
			bare = append(bare, b)
			diff = append(diff, inst-b)
		}
		base, over := median(bare), median(diff)
		frac := float64(over) / float64(base)
		t.Logf("attempt %d: bare median %v, paired overhead median %v (%.2f%%)", attempt, base, over, 100*frac)
		if frac < 0.05 {
			return
		}
	}
	t.Error("telemetry is consistently >5% of the reference drain's wall time")
}
