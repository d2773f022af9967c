// Crashsafe replay: the crash-consistency harness behind `make
// crashsafe`, `detourd -replay crashsafe`, and the crashsafe
// acceptance tests. One Crashsafe call builds a world and drives a
// fixed UBC fleet through a journaled scheduler; when a crash point
// is armed, the control plane dies there, and the harness restarts it
// on the same journal device — the replay truncates any torn tail,
// re-seats finished results, resumes in-flight transfers from their
// journaled checkpoints under their original idempotent attempt IDs,
// and completes the fleet. The sweep checks what the paper-style
// operator cares about: the provider holds exactly the objects the
// crash-free run produced (byte-identical listing), no object was
// committed twice, and the crash cost at most a rewind's worth of
// re-sent bytes.
//
// Determinism is the harness's (see replay.go).

package replay

import (
	"fmt"
	"io"
	"slices"

	"detournet/internal/faults"
	"detournet/internal/journal"
	"detournet/internal/rsyncx"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// CrashsafeOptions configures one crash-consistency replay.
type CrashsafeOptions struct {
	// Seed drives the world and the injected error bits.
	Seed int64
	// CrashsafeLeg arms the kill at Point (empty runs crash-free — the
	// control arm) on its Occurrence-th hit, the decayed-disk BitRot
	// restart, or the JournalFaults decay of the journal itself.
	sched.CrashsafeLeg
	// Decay arms faults.CrashsafeSchedule alongside: DTN torn writes,
	// a mid-fleet DTN crash, and periodic staged-chunk rot.
	Decay bool
	// JournalPath backs the journal with a real file (torn tails and
	// compaction swaps hit the filesystem). Empty uses an in-memory
	// device.
	JournalPath string
}

// CrashsafeOutcome is one replay's complete, deterministic result set.
//
// Replay.Results merges the journal-replayed finishes with the
// restarted scheduler's live ones (exactly one Result per job); Stats
// is the final incarnation's counter snapshot; VirtualSeconds spans
// the restart too.
type CrashsafeOutcome struct {
	Replay
	// Crashed reports whether the armed kill actually fired.
	Crashed bool
	// Listing is the provider-side truth — sorted "provider name size
	// md5" lines — the byte-identical acceptance surface. IDs and
	// timestamps are deliberately excluded: a recovered fleet commits
	// the same bytes, not the same wall-clock.
	Listing []string
	// MaxCommits is the largest materializing-commit count any fleet
	// object received (must be 1: zero duplicate provider commits);
	// DupSuppressed counts commits the provider answered from its
	// idempotent attempt table instead of re-materializing.
	MaxCommits    int
	DupSuppressed int
	// ReplayedResults is how many finishes came from the journal;
	// ReplayRecords / TruncatedBytes / DupFinishes describe the replay.
	ReplayedResults int
	ReplayRecords   int
	TruncatedBytes  int
	DupFinishes     int
	// ResumedBytes / RewrittenBytes / ChunkRepairs aggregate the merged
	// results' checkpoint accounting; IntegrityRetries sums both
	// incarnations' whole-transfer integrity discards.
	ResumedBytes     float64
	RewrittenBytes   float64
	ChunkRepairs     int
	IntegrityRetries int64
	// RottedChunks is how many staged chunks the BitRot restart
	// corrupted; Compactions counts journal snapshot swaps across both
	// incarnations.
	RottedChunks int
	Compactions  int
	// Hits is the per-crash-point reach count summed over both
	// incarnations — the sweep's coverage evidence.
	Hits map[string]int
	// Journal is the last incarnation's control journal, whose device
	// a restart would replay.
	Journal *sched.ControlJournal
}

// crashsafeJobs is the fleet size; every transfer is replayJobSize
// bytes.
const crashsafeJobs = 60

// Crashsafe replays the crash-consistency scenario once: a crash-free
// control run when no Point is armed, otherwise kill + restart + replay
// on the same journal device.
func Crashsafe(o CrashsafeOptions) CrashsafeOutcome {
	var specs []faults.Spec
	if o.Decay {
		specs = faults.CrashsafeSchedule()
	}
	if o.JournalFaults {
		// Journal decay: rot flips log bytes while transfers run, then a
		// torn append (which is also a kill — the write and the process
		// die together) forces the restart to replay the damaged log.
		specs = append(specs,
			faults.Spec{Kind: faults.BitRot, Journal: true, Start: 20, Duration: 5, Flips: 3},
			faults.Spec{Kind: faults.TornWrite, Journal: true, Start: 40, Duration: 1e9},
		)
	}
	r := newRig(o.Seed, specs)

	var dev journal.Device = journal.NewMemDevice()
	if o.JournalPath != "" {
		fd, err := journal.OpenFileDevice(o.JournalPath)
		if err != nil {
			panic(fmt.Sprintf("crashsafe: journal device: %v", err))
		}
		dev = fd
	}

	// --- first incarnation ---
	cj, _, err := sched.NewControlJournal(dev)
	if err != nil {
		panic(fmt.Sprintf("crashsafe: journal open: %v", err))
	}
	if r.inj != nil {
		r.inj.SetCrashControl(&faults.CrashControl{
			ArmCrash: cj.Arm, DisarmCrash: cj.Disarm,
			TornJournal: cj.TornJournal, FlipJournal: cj.FlipJournalByte,
		})
	}
	if o.Point != "" {
		// Armed before the scheduler exists: the kill plan is part of the
		// experiment, not a mid-run race. (Virtual-time-scheduled arming
		// via faults.ProcCrash works too, but cannot deterministically
		// catch points in the t≈0 submit burst.)
		cj.Arm(o.Point, o.Occurrence)
	}
	first := r.crashsafePhase(cj, nil)
	out := CrashsafeOutcome{Replay: first, Hits: make(map[string]int), Journal: cj}
	out.count(cj)
	out.IntegrityRetries = first.Stats.IntegrityRetries
	if !cj.Killed() {
		// Crash-free: the control arm (or an occurrence the run never
		// reached). No restart, no replay.
		out.finish(r.w)
		return out
	}
	out.Crashed = true

	// --- the crash: the dead process's memory is gone; the journal
	// device and the world (DTN disks, provider state) survive ---

	// Reopen the journal: replay, truncate any torn tail, fold.
	cj2, rec, err := sched.NewControlJournal(dev)
	if err != nil {
		panic(fmt.Sprintf("crashsafe: journal reopen: %v", err))
	}
	if r.inj != nil {
		// The restart must not die at the same planned point again — the
		// fault modeled a one-shot kill, and the inherited schedule
		// windows would otherwise re-arm it through the old hooks. Journal
		// rot, though, keeps targeting the live device.
		r.inj.SetCrashControl(&faults.CrashControl{
			ArmCrash: func(string, int) {}, DisarmCrash: func(string) {},
			TornJournal: func(bool) {}, FlipJournal: cj2.FlipJournalByte,
		})
	}
	out.ReplayedResults = len(rec.Finished)
	out.ReplayRecords = rec.Records
	out.TruncatedBytes = rec.TruncatedBytes
	out.DupFinishes = rec.DupFinishes

	if o.BitRot {
		// Decayed-disk restart: while the process was down, the staging
		// media rotted under every in-flight job. Chunk 0 and a middle
		// chunk — deterministic, and enough to prove repair granularity.
		for _, pj := range rec.Pending {
			if !pj.HasCkpt || pj.Ck.Hop1Via == "" {
				continue
			}
			d := r.w.Daemons[pj.Ck.Hop1Via]
			if d == nil {
				continue
			}
			if d.RotChunk(pj.Job.Name, 0) {
				out.RottedChunks++
			}
			if n := d.StagedChunks(pj.Job.Name); n > 2 && d.RotChunk(pj.Job.Name, n/2) {
				out.RottedChunks++
			}
		}
	}

	second := r.crashsafePhase(cj2, rec)
	// One Result per job: journal-replayed finishes first (their
	// attempts and bytes counted exactly once — the journal's dedupe
	// already dropped any double-written finish record), then the
	// restarted scheduler's live ones.
	out.Replay = second
	out.Results = append(append([]sched.Result{}, rec.Finished...), second.Results...)
	out.Journal = cj2
	out.IntegrityRetries += second.Stats.IntegrityRetries
	out.count(cj2)
	out.finish(r.w)
	return out
}

// crashsafePhase drives one scheduler incarnation over the fleet.
// After a restart, rec is the journal's recovered state: the jobs it
// proves finished are skipped, the rest resubmit in fleet order so
// recovered names reuse their sequence numbers (and therefore their
// idempotent attempt IDs), and its spent retries re-drain the fresh
// health tracker's budgets (a crash must not refill a sick provider's
// bucket).
func (r *rig) crashsafePhase(cj *sched.ControlJournal, rec *sched.Recovered) Replay {
	skip := make(map[string]bool)
	if rec != nil {
		for _, res := range rec.Finished {
			skip[res.Job.Name] = true
		}
	}
	var jobs []sched.Job
	for _, j := range fleetOf(crashsafeJobs, "crashsafe", "crash", scenario.UBC) {
		if !skip[j.Name] {
			j.MD5 = rsyncx.Checksum([]byte(j.Name))
			jobs = append(jobs, j)
		}
	}
	// run stops submitting at the kill and drops every result the dead
	// process produced after it.
	return r.run(fleet{jobs: jobs}, func(r *rig) {
		tracker := r.tracker()
		if rec != nil {
			for _, prov := range sortedKeys(rec.RetrySpent) {
				tracker.RestoreSpentRetries(prov, rec.RetrySpent[prov])
			}
		}
		r.cfg.MaxAttempts = 4
		r.cfg.CacheTTL = 3600
		r.cfg.Health = tracker
		r.cfg.Journal = cj
	})
}

// count adds one incarnation's crash-point reaches and compactions.
func (out *CrashsafeOutcome) count(cj *sched.ControlJournal) {
	for _, pt := range sched.CrashPoints() {
		out.Hits[pt] += cj.HitCount(pt)
	}
	out.Compactions += cj.Compactions()
}

// finish derives the provider-truth fields: the sorted listing, the
// commit counts, and the merged checkpoint accounting.
func (out *CrashsafeOutcome) finish(w *scenario.World) {
	for _, p := range sortedKeys(w.Services) {
		for _, ob := range w.Services[p].Store.List() {
			out.Listing = append(out.Listing, fmt.Sprintf("%s %s %.0f %s", p, ob.Name, ob.Size, ob.MD5))
		}
		out.DupSuppressed += w.Services[p].Store.DuplicatesSuppressed()
	}
	store := w.Services[scenario.GoogleDrive].Store
	for _, j := range fleetOf(crashsafeJobs, "crashsafe", "crash", scenario.UBC) {
		out.MaxCommits = max(out.MaxCommits, store.Commits(j.Name))
	}
	for _, r := range out.Results {
		out.ResumedBytes += r.Resumed
		out.RewrittenBytes += r.Rewritten
		out.ChunkRepairs += r.ChunkRepairs
	}
}

// SweepLeg is one swept crash scenario and how its recovery compares
// with the crash-free control.
type SweepLeg struct {
	sched.CrashsafeLeg
	Outcome CrashsafeOutcome
	// Identical reports the crashed run left the providers holding
	// exactly the control run's objects (same names, sizes, digests).
	Identical bool
	// Resent is the crash's re-send cost: the crashed run's rewritten
	// bytes over the control's.
	Resent float64
}

// CrashsafeSweep runs the control arm once and every leg of
// sched.CrashsafeSweepLegs against it.
func CrashsafeSweep(seed int64) (CrashsafeOutcome, []SweepLeg) {
	control := Crashsafe(CrashsafeOptions{Seed: seed})
	var legs []SweepLeg
	for _, l := range sched.CrashsafeSweepLegs() {
		o := Crashsafe(CrashsafeOptions{Seed: seed, CrashsafeLeg: l})
		legs = append(legs, SweepLeg{
			CrashsafeLeg: l, Outcome: o,
			Identical: slices.Equal(control.Listing, o.Listing),
			Resent:    o.RewrittenBytes - control.RewrittenBytes,
		})
	}
	return control, legs
}

// runCrashsafe renders the deterministic sweep and storage-decay
// report `detourd -replay crashsafe` prints and checks the sweep's
// acceptance invariants: every leg fired its kill, recovered
// byte-identical to the control, and never committed an object twice.
// Non-nil means the crash-consistency contract is broken.
func runCrashsafe(out io.Writer, seed int64) error {
	control, legs := CrashsafeSweep(seed)
	fmt.Fprintf(out, "Crashsafe: %d-job fleet, kill at every control-plane crash point, restart on the journal\n", len(control.Results))
	fmt.Fprintf(out, "control: %d done | %d objects | rewritten %.1f MB | %d compactions | %.0f virtual s\n",
		control.Done(), len(control.Listing), control.RewrittenBytes/1e6, control.Compactions, control.VirtualSeconds)
	totals := make(map[string]int)
	for pt, n := range control.Hits {
		totals[pt] += n
	}
	for _, l := range legs {
		o := l.Outcome
		ident := "IDENTICAL"
		if !l.Identical {
			ident = "DIVERGED"
		}
		fmt.Fprintf(out, "%-22s done %2d/%2d | replayed %2d (+%d records, %d B truncated, %d dup) | commits<=%d dup-suppressed %d | resent %6.1f MB | repairs %d | %s\n",
			l, o.Done(), len(o.Results), o.ReplayedResults, o.ReplayRecords,
			o.TruncatedBytes, o.DupFinishes, o.MaxCommits, o.DupSuppressed,
			l.Resent/1e6, o.ChunkRepairs, ident)
		for pt, n := range o.Hits {
			totals[pt] += n
		}
	}
	fmt.Fprintln(out, "crash-point coverage (reaches across the sweep):")
	for _, pt := range sched.CrashPoints() {
		fmt.Fprintf(out, "  %-15s %d\n", pt, totals[pt])
	}

	// The storage-decay arm: DTN torn writes, a mid-fleet DTN crash, and
	// staged-chunk rot, healed by chunk-level repair instead of
	// whole-transfer discard.
	decay := Crashsafe(CrashsafeOptions{Seed: seed, Decay: true})
	fmt.Fprintf(out, "decay: %d done %d failed | repairs %d integrity-retries %d | resumed %.1f MB rewritten %.1f MB | %d fault transitions | %.0f virtual s\n",
		decay.Stats.Done, decay.Stats.Failed, decay.ChunkRepairs, decay.IntegrityRetries,
		decay.ResumedBytes/1e6, decay.RewrittenBytes/1e6,
		len(decay.Faults), decay.VirtualSeconds)

	if got := control.Done(); got != len(control.Results) || got == 0 {
		return fmt.Errorf("control arm: %d/%d done", got, len(control.Results))
	}
	for _, l := range legs {
		switch {
		case !l.Outcome.Crashed:
			return fmt.Errorf("%s: kill never fired", l)
		case l.Outcome.Done() != control.Done():
			return fmt.Errorf("%s: %d done, control %d", l, l.Outcome.Done(), control.Done())
		case !l.Identical:
			return fmt.Errorf("%s: provider listing diverged", l)
		case l.Outcome.MaxCommits != 1:
			return fmt.Errorf("%s: %d commits on one object", l, l.Outcome.MaxCommits)
		case l.Outcome.IntegrityRetries != 0:
			return fmt.Errorf("%s: %d whole-transfer integrity discards", l, l.Outcome.IntegrityRetries)
		}
	}
	return nil
}
