// Crashsafe replay: the crash-consistency harness behind `make
// crashsafe`, `detourd -replay crashsafe`, and the crashsafe
// acceptance tests. One RunCrashsafe call builds a world and drives a
// fixed UBC fleet through a journaled scheduler; when a crash point
// is armed, the control plane dies there, and the harness restarts it
// on the same journal device — the replay truncates any torn tail,
// re-seats finished results, resumes in-flight transfers from their
// journaled checkpoints under their original idempotent attempt IDs,
// and completes the fleet. The verdict arithmetic checks what the
// paper-style operator cares about: the provider holds exactly the
// objects the crash-free run produced (byte-identical listing), no
// object was committed twice, and the crash cost at most a rewind's
// worth of re-sent bytes.
//
// Determinism is the harness's (see replay.go).
package sched

import (
	"fmt"
	"io"
	"os"
	"sort"

	"detournet/internal/faults"
	"detournet/internal/health"
	"detournet/internal/journal"
	"detournet/internal/rsyncx"
	"detournet/internal/scenario"
)

// CrashsafeOptions configures one crash-consistency replay.
type CrashsafeOptions struct {
	// Seed drives the world and the injected error bits.
	Seed int64
	// Point, when non-empty, arms a kill at the named control-plane
	// crash point (see CrashPoints); Occurrence selects which hit fires
	// (1-based). Empty runs crash-free — the control arm.
	Point      string
	Occurrence int
	// BitRot corrupts staged chunks of every in-flight job between the
	// crash and the restart — the decayed-disk restart. Recovery must
	// repair exactly the damaged chunks (ChunkRepairs), never discard
	// the transfer (IntegrityRetries).
	BitRot bool
	// Decay arms faults.CrashsafeSchedule alongside: DTN torn writes,
	// a mid-fleet DTN crash, and periodic staged-chunk rot.
	Decay bool
	// JournalFaults turns the decay on the journal itself: injected
	// bit rot flips journal bytes mid-run, then a torn append kills the
	// control plane mid-record. The restart must recover the longest
	// valid prefix and precheck its way past the lost records.
	JournalFaults bool
	// JournalPath backs the journal with a real file (torn tails and
	// compaction swaps hit the filesystem). Empty uses an in-memory
	// device.
	JournalPath string
}

// CrashsafeOutcome is one replay's complete, deterministic result set.
//
// Replay.Results merges the journal-replayed finishes with the
// restarted scheduler's live ones (exactly one Result per job); Stats
// is the final incarnation's counter snapshot; Transitions is the
// fault injector's log (decay and journal-fault arms only);
// VirtualSeconds spans the restart too.
type CrashsafeOutcome struct {
	Replay
	// Point echoes the armed crash point ("" for the control arm);
	// Crashed reports whether the kill actually fired.
	Point   string
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
	// lastJournal is the last incarnation's control journal, kept so
	// tests can replay its device against its live fold.
	lastJournal *ControlJournal
}

// crashsafeJobs is the fleet size; every transfer is replayJobSize
// bytes.
const crashsafeJobs = 60

// crashsafeJobName is the fleet's deterministic naming scheme.
func crashsafeJobName(i int) string { return fmt.Sprintf("crash-%03d.bin", i) }

// RunCrashsafe replays the crash-consistency scenario once: a crash-free
// control run when no Point is armed, otherwise kill + restart + replay
// on the same journal device.
func RunCrashsafe(o CrashsafeOptions) CrashsafeOutcome {
	w := scenario.Build(o.Seed)

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
	var inj *faults.Injector
	if len(specs) > 0 {
		inj = faults.NewInjector(w, o.Seed, specs...)
	}

	var dev journal.Device
	if o.JournalPath != "" {
		fd, err := journal.OpenFileDevice(o.JournalPath)
		if err != nil {
			panic(fmt.Sprintf("crashsafe: journal device: %v", err))
		}
		dev = fd
	} else {
		dev = journal.NewMemDevice()
	}

	// --- first incarnation ---
	cj, _, err := NewControlJournal(dev)
	if err != nil {
		panic(fmt.Sprintf("crashsafe: journal open: %v", err))
	}
	if inj != nil {
		inj.SetCrashControl(&faults.CrashControl{
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
	results1, st1 := runCrashsafePhase(w, cj, nil, nil)

	out := CrashsafeOutcome{
		Point: o.Point,
		Hits:  make(map[string]int),
	}
	for _, pt := range CrashPoints() {
		out.Hits[pt] += cj.HitCount(pt)
	}
	out.Compactions = cj.Compactions()

	if !cj.Killed() {
		// Crash-free: the control arm (or an occurrence the run never
		// reached). No restart, no replay.
		out.Results, out.Stats = results1, st1
		out.IntegrityRetries = st1.IntegrityRetries
		out.lastJournal = cj
		finishCrashsafeOutcome(&out, w)
		if inj != nil {
			out.Transitions = inj.Transitions()
		}
		return out
	}
	out.Crashed = true

	// --- the crash: the dead process's memory is gone; the journal
	// device and the world (DTN disks, provider state) survive ---

	// Reopen the journal: replay, truncate any torn tail, fold.
	cj2, rec, err := NewControlJournal(dev)
	if err != nil {
		panic(fmt.Sprintf("crashsafe: journal reopen: %v", err))
	}
	if inj != nil {
		// The restart must not die at the same planned point again — the
		// fault modeled a one-shot kill, and the inherited schedule
		// windows would otherwise re-arm it through the old hooks. Journal
		// rot, though, keeps targeting the live device.
		inj.SetCrashControl(&faults.CrashControl{
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
			d := w.Daemons[pj.Ck.Hop1Via]
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

	// Skip jobs the journal proves finished; resubmit the rest in fleet
	// order so recovered names reuse their sequence numbers (and
	// therefore their idempotent attempt IDs).
	skip := make(map[string]bool, len(rec.Finished))
	for _, r := range rec.Finished {
		skip[r.Job.Name] = true
	}
	results2, st2 := runCrashsafePhase(w, cj2, skip, rec.RetrySpent)

	// One Result per job: journal-replayed finishes first (their
	// attempts and bytes counted exactly once — the journal's dedupe
	// already dropped any double-written finish record), then the
	// restarted scheduler's live ones.
	out.Results = append(append([]Result{}, rec.Finished...), results2...)
	out.Stats = st2
	out.lastJournal = cj2
	out.IntegrityRetries = st1.IntegrityRetries + st2.IntegrityRetries
	for _, pt := range CrashPoints() {
		out.Hits[pt] += cj2.HitCount(pt)
	}
	out.Compactions += cj2.Compactions()
	if inj != nil {
		out.Transitions = inj.Transitions()
	}
	finishCrashsafeOutcome(&out, w)
	return out
}

// runCrashsafePhase drives one scheduler incarnation over the fleet.
// skip names jobs the journal already proved finished; retrySpent
// re-drains the fresh health tracker's budgets to the journaled level
// (a crash must not refill a sick provider's bucket).
func runCrashsafePhase(w *scenario.World, cj *ControlJournal, skip map[string]bool, retrySpent map[string]int) ([]Result, Stats) {
	exec := NewSimExecutor(w)
	defer exec.Close()
	tracker := health.New(health.Options{
		Now: exec.VirtualNow, Trace: w.Trace, CanaryInterval: 60,
	})
	providers := make([]string, 0, len(retrySpent))
	for prov := range retrySpent {
		providers = append(providers, prov)
	}
	sort.Strings(providers)
	for _, prov := range providers {
		tracker.RestoreSpentRetries(prov, retrySpent[prov])
	}
	cfg := Config{
		Workers:  1, // sequential ⇒ deterministic
		Executor: exec, Planner: exec,
		MaxAttempts: 4,
		CacheTTL:    3600,
		Health:      tracker,
		Journal:     cj,
		Now:         exec.VirtualNow,
		Sleep:       exec.SleepVirtual,
	}
	var jobs []Job
	for i := 0; i < crashsafeJobs; i++ {
		if name := crashsafeJobName(i); !skip[name] {
			jobs = append(jobs, Job{
				Tenant: "crashsafe", Client: scenario.UBC,
				Provider: scenario.GoogleDrive,
				Name:     name, Size: replayJobSize,
				MD5: rsyncx.Checksum([]byte(name)),
			})
		}
	}
	// runFleet stops submitting at the kill and drops every result the
	// dead process produced after it.
	return runFleet(cfg, jobs, nil)
}

// finishCrashsafeOutcome derives the provider-truth fields: the sorted
// listing, the commit counts, and the merged checkpoint accounting.
func finishCrashsafeOutcome(out *CrashsafeOutcome, w *scenario.World) {
	provs := make([]string, 0, len(w.Services))
	for p := range w.Services {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	for _, p := range provs {
		for _, ob := range w.Services[p].Store.List() {
			out.Listing = append(out.Listing, fmt.Sprintf("%s %s %.0f %s", p, ob.Name, ob.Size, ob.MD5))
		}
		out.DupSuppressed += w.Services[p].Store.DuplicatesSuppressed()
	}
	store := w.Services[scenario.GoogleDrive].Store
	for i := 0; i < crashsafeJobs; i++ {
		if c := store.Commits(crashsafeJobName(i)); c > out.MaxCommits {
			out.MaxCommits = c
		}
	}
	for _, r := range out.Results {
		out.ResumedBytes += r.Resumed
		out.RewrittenBytes += r.Rewritten
		out.ChunkRepairs += r.ChunkRepairs
	}
	out.VirtualSeconds = float64(w.Eng.Now())
}

// CrashsafeVerdict is the acceptance arithmetic over a control/crashed
// pair.
type CrashsafeVerdict struct {
	// ByteIdentical reports the crashed run left the providers holding
	// exactly the control run's objects (same names, sizes, digests).
	ByteIdentical bool
	// MaxCommits must be 1: no fleet object was materialized twice.
	MaxCommits int
	// DupSuppressed counts provider commits answered idempotently — the
	// replays that WOULD have been duplicates without attempt IDs.
	DupSuppressed int
	// ResentBytes is the crash's re-send cost: the crashed run's
	// rewritten bytes over the control's.
	ResentBytes float64
	// ChunkRepairs and Replayed echo the crashed run's repair count and
	// journal-recovered finish count.
	ChunkRepairs int
	Replayed     int
}

// CompareCrashsafe scores a crashed run against the crash-free control
// for the same fleet and seed.
func CompareCrashsafe(control, crashed CrashsafeOutcome) CrashsafeVerdict {
	v := CrashsafeVerdict{
		ByteIdentical: len(control.Listing) == len(crashed.Listing),
		MaxCommits:    crashed.MaxCommits,
		DupSuppressed: crashed.DupSuppressed,
		ResentBytes:   crashed.RewrittenBytes - control.RewrittenBytes,
		ChunkRepairs:  crashed.ChunkRepairs,
		Replayed:      crashed.ReplayedResults,
	}
	if v.ByteIdentical {
		for i := range control.Listing {
			if control.Listing[i] != crashed.Listing[i] {
				v.ByteIdentical = false
				break
			}
		}
	}
	return v
}

// CrashsafeLeg is one swept crash scenario and its verdict.
type CrashsafeLeg struct {
	Point         string
	Occurrence    int
	BitRot        bool
	JournalFaults bool
	Outcome       CrashsafeOutcome
	Verdict       CrashsafeVerdict
}

// label renders the leg's scenario name.
func (l CrashsafeLeg) label() string {
	if l.Point == "" && l.JournalFaults {
		return "journal-rot+torn"
	}
	s := fmt.Sprintf("%s#%d", l.Point, l.Occurrence)
	if l.BitRot {
		s += "+bitrot"
	}
	if l.JournalFaults {
		s += "+jrot"
	}
	return s
}

// CrashsafeSweepLegs enumerates the sweep: every crash point, with an
// occurrence tuned to land mid-fleet, plus a bit-rot restart leg. The
// coverage test asserts the sweep reaches every enumerated point.
func CrashsafeSweepLegs() []CrashsafeLeg {
	return []CrashsafeLeg{
		{Point: CrashAfterSubmit, Occurrence: 30},
		{Point: CrashBeforeAttempt, Occurrence: 15},
		{Point: CrashAfterAttempt, Occurrence: 35},
		{Point: CrashTornAppend, Occurrence: 600},
		{Point: CrashMidHop1, Occurrence: 200},
		{Point: CrashMidHop2, Occurrence: 700},
		{Point: CrashBeforeFinish, Occurrence: 30},
		{Point: CrashAfterFinish, Occurrence: 40},
		{Point: CrashDuringCompact, Occurrence: 2},
		{Point: CrashMidHop2, Occurrence: 5, BitRot: true},
		{JournalFaults: true},
	}
}

// RunCrashsafeSweep runs the control arm once and every sweep leg
// against it.
func RunCrashsafeSweep(seed int64) (CrashsafeOutcome, []CrashsafeLeg) {
	control := RunCrashsafe(CrashsafeOptions{Seed: seed})
	legs := CrashsafeSweepLegs()
	for i := range legs {
		legs[i].Outcome = RunCrashsafe(CrashsafeOptions{
			Seed: seed, Point: legs[i].Point, Occurrence: legs[i].Occurrence,
			BitRot: legs[i].BitRot, JournalFaults: legs[i].JournalFaults,
		})
		legs[i].Verdict = CompareCrashsafe(control, legs[i].Outcome)
	}
	return control, legs
}

// WriteCrashsafeReport renders the deterministic sweep report
// `detourd -replay crashsafe` prints.
func WriteCrashsafeReport(out io.Writer, control CrashsafeOutcome, legs []CrashsafeLeg) {
	fmt.Fprintf(out, "Crashsafe: %d-job fleet, kill at every control-plane crash point, restart on the journal\n", len(control.Results))
	fmt.Fprintf(out, "control: %d done | %d objects | rewritten %.1f MB | %d compactions | %.0f virtual s\n",
		control.Done(), len(control.Listing), control.RewrittenBytes/1e6, control.Compactions, control.VirtualSeconds)
	for _, l := range legs {
		o := l.Outcome
		v := l.Verdict
		ident := "IDENTICAL"
		if !v.ByteIdentical {
			ident = "DIVERGED"
		}
		fmt.Fprintf(out, "%-22s done %2d/%2d | replayed %2d (+%d records, %d B truncated, %d dup) | commits<=%d dup-suppressed %d | resent %6.1f MB | repairs %d | %s\n",
			l.label(), o.Done(), len(o.Results), v.Replayed, o.ReplayRecords,
			o.TruncatedBytes, o.DupFinishes, v.MaxCommits, v.DupSuppressed,
			v.ResentBytes/1e6, v.ChunkRepairs, ident)
	}
	fmt.Fprintln(out, "crash-point coverage (reaches across the sweep):")
	totals := make(map[string]int)
	for _, l := range legs {
		for pt, n := range l.Outcome.Hits {
			totals[pt] += n
		}
	}
	for pt, n := range control.Hits {
		totals[pt] += n
	}
	for _, pt := range CrashPoints() {
		fmt.Fprintf(out, "  %-15s %d\n", pt, totals[pt])
	}
}

// CrashsafeSanity checks the sweep's acceptance invariants: every leg
// fired its kill, recovered byte-identical to the control, and never
// committed an object twice. Non-nil means the crash-consistency
// contract is broken.
func CrashsafeSanity(control CrashsafeOutcome, legs []CrashsafeLeg) error {
	if got := control.Done(); got != len(control.Results) || got == 0 {
		return fmt.Errorf("control arm: %d/%d done", got, len(control.Results))
	}
	for _, l := range legs {
		switch {
		case !l.Outcome.Crashed:
			return fmt.Errorf("%s: kill never fired", l.label())
		case l.Outcome.Done() != control.Done():
			return fmt.Errorf("%s: %d done, control %d", l.label(), l.Outcome.Done(), control.Done())
		case !l.Verdict.ByteIdentical:
			return fmt.Errorf("%s: provider listing diverged", l.label())
		case l.Verdict.MaxCommits != 1:
			return fmt.Errorf("%s: %d commits on one object", l.label(), l.Verdict.MaxCommits)
		case l.Outcome.IntegrityRetries != 0:
			return fmt.Errorf("%s: %d whole-transfer integrity discards", l.label(), l.Outcome.IntegrityRetries)
		}
	}
	return nil
}

// journalRecName names the wire record types for the -journal dump.
var journalRecName = map[byte]string{
	recSubmit: "submit", recAttempt: "attempt", recCkpt: "ckpt",
	recCap: "cap", recRetry: "retry", recLanes: "lanes",
	recFinish: "finish", recSnapshot: "snapshot",
}

// WriteJournalDump replays a control journal file and prints the
// operator's view of it: the record census, any truncated tail, and
// the folded state a restart would recover — finished jobs, pending
// jobs with their checkpoints and idempotent attempt IDs, spent retry
// tokens, held cap slots. The detourctl -journal flag drives this.
//
// The dump is read-only: it replays an in-memory copy of the file, so
// the torn-tail truncation a restart would perform never reaches the
// file on disk.
func WriteJournalDump(out io.Writer, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dev := journal.NewMemDevice()
	if err := dev.Swap(b); err != nil {
		return err
	}
	recs, truncated, err := journal.Replay(dev)
	if err != nil {
		return err
	}
	counts := make(map[string]int)
	for _, r := range recs {
		name := journalRecName[r.Type]
		if name == "" {
			name = fmt.Sprintf("type-%d", r.Type)
		}
		counts[name]++
	}
	_, rec, err := NewControlJournal(dev)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "journal %s: %d records, %d B", path, len(recs), len(b))
	if truncated > 0 {
		fmt.Fprintf(out, " (torn tail: %d B truncated)", truncated)
	}
	fmt.Fprintln(out)
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-9s %d\n", n, counts[n])
	}
	fmt.Fprintf(out, "recovered state: %d finished, %d pending, %d duplicate finishes\n",
		len(rec.Finished), len(rec.Pending), rec.DupFinishes)
	for _, pj := range rec.Pending {
		line := fmt.Sprintf("  pending %s seq=%d id=%s attempts=%d", pj.Job.Name, pj.Seq, pj.AttemptID, pj.PriorAttempts)
		if pj.HasCkpt {
			line += fmt.Sprintf(" ckpt[hop1=%s@%.0f session=%v watermark=%.0f]",
				pj.Ck.Hop1Via, pj.Ck.Hop1High, pj.Ck.HasSession, pj.Ck.Watermark)
		}
		fmt.Fprintln(out, line)
	}
	provs := make([]string, 0, len(rec.RetrySpent))
	for p := range rec.RetrySpent {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	for _, p := range provs {
		fmt.Fprintf(out, "  retries spent %s: %d\n", p, rec.RetrySpent[p])
	}
	keys := make([]string, 0, len(rec.CapsHeld))
	for k := range rec.CapsHeld {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  cap held %s: %d\n", k, rec.CapsHeld[k])
	}
	return nil
}

// WriteCrashsafeDecayReport renders the storage-decay arm: DTN torn
// writes, a mid-fleet DTN crash, and staged-chunk rot, healed by
// chunk-level repair instead of whole-transfer discard.
func WriteCrashsafeDecayReport(out io.Writer, decay CrashsafeOutcome) {
	st := decay.Stats
	fmt.Fprintf(out, "decay: %d done %d failed | repairs %d integrity-retries %d | resumed %.1f MB rewritten %.1f MB | %d fault transitions | %.0f virtual s\n",
		st.Done, st.Failed, decay.ChunkRepairs, decay.IntegrityRetries,
		decay.ResumedBytes/1e6, decay.RewrittenBytes/1e6,
		len(decay.Transitions), decay.VirtualSeconds)
}
