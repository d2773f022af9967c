package sched

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"detournet/internal/core"
	"detournet/internal/journal"
	"detournet/internal/rsyncx"
	"detournet/internal/sdk"
)

// The full sweep (control + 11 legs) is deterministic and shared by
// every acceptance test below: run it once.
var (
	sweepOnce    sync.Once
	sweepControl CrashsafeOutcome
	sweepLegs    []CrashsafeLeg
)

func crashsafeSweep(t *testing.T) (CrashsafeOutcome, []CrashsafeLeg) {
	t.Helper()
	sweepOnce.Do(func() { sweepControl, sweepLegs = RunCrashsafeSweep(7) })
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
		o, v := l.Outcome, l.Verdict
		if !o.Crashed {
			t.Errorf("%s: kill never fired", l.label())
			continue
		}
		if got := o.Done(); got != 60 {
			t.Errorf("%s: done = %d, want 60", l.label(), got)
		}
		if got := len(o.Results); got != 60 {
			t.Errorf("%s: results = %d, want 60", l.label(), got)
		}
		names := make(map[string]bool, len(o.Results))
		for _, r := range o.Results {
			if names[r.Job.Name] {
				t.Errorf("%s: duplicate result for %s", l.label(), r.Job.Name)
			}
			names[r.Job.Name] = true
		}
		if !v.ByteIdentical {
			t.Errorf("%s: provider listing diverged from control", l.label())
		}
		if v.MaxCommits != 1 {
			t.Errorf("%s: MaxCommits = %d, want 1 (duplicate provider commit)", l.label(), v.MaxCommits)
		}
		if o.IntegrityRetries != 0 {
			t.Errorf("%s: IntegrityRetries = %d, want 0 (whole-transfer discard)", l.label(), o.IntegrityRetries)
		}
		if v.ResentBytes > maxResent {
			t.Errorf("%s: resent %.0f B > bound %.0f B", l.label(), v.ResentBytes, maxResent)
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
	for _, pt := range CrashPoints() {
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
			t.Fatalf("%s: no chunks rotted — the leg tests nothing", l.label())
		}
		if o.ChunkRepairs == 0 {
			t.Errorf("%s: ChunkRepairs = 0, want > 0", l.label())
		}
		if o.ChunkRepairs != o.RottedChunks {
			t.Errorf("%s: ChunkRepairs = %d, RottedChunks = %d — repair granularity drifted",
				l.label(), o.ChunkRepairs, o.RottedChunks)
		}
		if o.IntegrityRetries != 0 {
			t.Errorf("%s: IntegrityRetries = %d, want 0", l.label(), o.IntegrityRetries)
		}
		// The re-send cost is the repaired chunks, not the transfer.
		bound := float64(o.ChunkRepairs*rsyncx.ManifestChunk) + 1e5
		if l.Verdict.ResentBytes > bound {
			t.Errorf("%s: resent %.0f B > %d repaired chunks (%.0f B)",
				l.label(), l.Verdict.ResentBytes, o.ChunkRepairs, bound)
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
		if !l.Verdict.ByteIdentical || l.Verdict.MaxCommits != 1 {
			t.Errorf("journal-faults leg: identical=%v maxCommits=%d",
				l.Verdict.ByteIdentical, l.Verdict.MaxCommits)
		}
	}
	if !found {
		t.Fatal("sweep has no journal-faults leg")
	}
}

// TestCrashsafeDeterminism renders the storage-decay report twice from
// independent runs: same seed, same binary ⇒ byte-identical output.
// (The sweep report is covered by TestReplaysDeterministic.)
func TestCrashsafeDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	WriteCrashsafeDecayReport(&a, RunCrashsafe(CrashsafeOptions{Seed: 7, Decay: true}))
	WriteCrashsafeDecayReport(&b, RunCrashsafe(CrashsafeOptions{Seed: 7, Decay: true}))
	if a.String() != b.String() {
		t.Fatalf("decay report not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestCrashsafeDecay runs the storage-decay arm: DTN torn writes, a
// mid-fleet DTN crash, and staged-chunk rot under a live journal. The
// fleet must still converge exactly once per object.
func TestCrashsafeDecay(t *testing.T) {
	o := RunCrashsafe(CrashsafeOptions{Seed: 7, Decay: true})
	if got := o.Done(); got != 60 {
		t.Fatalf("decay done = %d, want 60", got)
	}
	if o.MaxCommits != 1 {
		t.Fatalf("decay MaxCommits = %d, want 1", o.MaxCommits)
	}
	if len(o.Transitions) == 0 {
		t.Fatal("decay arm injected nothing")
	}
}

// TestCrashsafeFileDevice runs the torn-append kill against a real
// file-backed journal: the torn tail hits the filesystem and the
// restart truncates it in place.
func TestCrashsafeFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "control.wal")
	o := RunCrashsafe(CrashsafeOptions{
		Seed: 7, Point: CrashTornAppend, Occurrence: 600, JournalPath: path,
	})
	if !o.Crashed {
		t.Fatal("file-backed torn-append never fired")
	}
	if o.TruncatedBytes == 0 {
		t.Fatal("file-backed replay truncated nothing")
	}
	control, _ := crashsafeSweep(t)
	v := CompareCrashsafe(control, o)
	if !v.ByteIdentical || v.MaxCommits != 1 {
		t.Fatalf("file-backed leg: identical=%v maxCommits=%d", v.ByteIdentical, v.MaxCommits)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("journal file missing or empty: %v", err)
	}
}

func csJob(name string) Job {
	return Job{
		Tenant: "t", Client: "ubco", Provider: "gdrive",
		Name: name, Size: 1e6, MD5: rsyncx.Checksum([]byte(name)),
	}
}

// TestControlJournalRecovery pins the replay fold: finished results
// re-seat, pending jobs recover their checkpoints and stable attempt
// IDs, retry spends and cap holds survive, and TakeRecovered hands the
// checkpoint out exactly once.
func TestControlJournalRecovery(t *testing.T) {
	dev := journal.NewMemDevice()
	cj, rec, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Finished)+len(rec.Pending) != 0 || cj.RecoveredMode() {
		t.Fatal("fresh journal claims recovered state")
	}

	j0, j1, j2 := csJob("a.bin"), csJob("b.bin"), csJob("c.bin")
	cj.NoteSubmit(j0)
	cj.NoteSubmit(j1)
	cj.NoteSubmit(j2)
	cj.NoteAttempt(j0, 1, core.DirectRoute)
	cj.NoteFinish(&Result{Job: j0, Route: core.DirectRoute, Seconds: 2, Attempts: 1})
	cj.NoteAttempt(j1, 2, core.Route{Kind: core.Detour, Via: "edmn1"})
	ck := &core.Checkpoint{
		Hop1Via: "edmn1", Hop1High: 4e5, HasSession: true,
		Session:      sdk.SessionToken{Provider: "gdrive", Ref: "sess-1", Name: j1.Name, Size: j1.Size, Offset: 2e5},
		BytesResumed: 1e5,
	}
	cj.NoteCkpt(j1, ck, 6e5)
	cj.NoteRetry("gdrive")
	cj.NoteRetry("gdrive")
	cj.NoteCap("gdrive", "edmn1", true)
	wantID := cj.AttemptID(j1.Name)
	if wantID == "" {
		t.Fatal("no attempt ID for submitted job")
	}

	cj2, rec2, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !cj2.RecoveredMode() {
		t.Fatal("reopened journal not in recovered mode")
	}
	if len(rec2.Finished) != 1 || rec2.Finished[0].Job.Name != j0.Name || rec2.Finished[0].Err != nil {
		t.Fatalf("recovered finished = %+v", rec2.Finished)
	}
	if len(rec2.Pending) != 2 || rec2.Pending[0].Job.Name != j1.Name || rec2.Pending[1].Job.Name != j2.Name {
		t.Fatalf("recovered pending = %+v", rec2.Pending)
	}
	pj := rec2.Pending[0]
	if !pj.HasCkpt || pj.Ck.Hop1Via != "edmn1" || pj.Ck.Session.Ref != "sess-1" || pj.PriorAttempts != 2 {
		t.Fatalf("recovered checkpoint = %+v", pj)
	}
	restored := pj.Checkpoint()
	if restored.AttemptID != wantID || !restored.HasSession || restored.Hop1High != 4e5 {
		t.Fatalf("reconstituted checkpoint = %+v", restored)
	}
	if rec2.RetrySpent["gdrive"] != 2 {
		t.Fatalf("retry spends = %v", rec2.RetrySpent)
	}
	if rec2.CapsHeld["gdrive|edmn1"] != 1 {
		t.Fatalf("caps held = %v", rec2.CapsHeld)
	}

	// Resubmission reuses the sequence number — the idempotency key is
	// stable across incarnations.
	cj2.NoteSubmit(j1)
	if got := cj2.AttemptID(j1.Name); got != wantID {
		t.Fatalf("attempt ID changed across restart: %q vs %q", got, wantID)
	}
	if got := cj2.TakeRecovered(j1.Name); got == nil || !got.HasCkpt {
		t.Fatalf("TakeRecovered = %+v", got)
	}
	if got := cj2.TakeRecovered(j1.Name); got != nil && (got.HasCkpt || got.PriorAttempts != 0) {
		t.Fatalf("TakeRecovered handed out twice: %+v", got)
	}
}

// TestControlJournalDupFinish pins the crash-between-commit-and-ack
// window: a finish record journaled twice folds to one Result.
func TestControlJournalDupFinish(t *testing.T) {
	dev := journal.NewMemDevice()
	cj, _, _ := NewControlJournal(dev)
	j := csJob("dup.bin")
	cj.NoteSubmit(j)
	res := Result{Job: j, Route: core.DirectRoute, Attempts: 1}
	cj.NoteFinish(&res)
	cj.NoteFinish(&res) // replayed ack: journaled again
	_, rec, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Finished) != 1 || rec.DupFinishes != 1 {
		t.Fatalf("finished=%d dup=%d, want 1/1", len(rec.Finished), rec.DupFinishes)
	}
	if rec.Finished[0].Attempts != 1 {
		t.Fatalf("replayed attempts = %d, want 1 (double-counted)", rec.Finished[0].Attempts)
	}
}

// TestControlJournalCompactEquivalence pins the snapshot contract:
// replay of (snapshot + tail) equals replay of the full log.
func TestControlJournalCompactEquivalence(t *testing.T) {
	devA, devB := journal.NewMemDevice(), journal.NewMemDevice()
	cjA, _, _ := NewControlJournal(devA)
	cjB, _, _ := NewControlJournal(devB)
	cjA.SetCompactEvery(2)
	cjB.SetCompactEvery(0)
	for _, cj := range []*ControlJournal{cjA, cjB} {
		for i := 0; i < 5; i++ {
			cj.NoteSubmit(csJob(crashsafeJobName(i)))
		}
		for i := 0; i < 4; i++ {
			j := csJob(crashsafeJobName(i))
			cj.NoteAttempt(j, 1, core.DirectRoute)
			cj.NoteFinish(&Result{Job: j, Route: core.DirectRoute, Attempts: 1})
		}
		cj.NoteRetry("gdrive")
		ck := &core.Checkpoint{Hop1Via: "vncv1", Hop1High: 5e5}
		cj.NoteCkpt(csJob(crashsafeJobName(4)), ck, 5e5)
	}
	if cjA.Compactions() != 2 {
		t.Fatalf("compactions = %d, want 2", cjA.Compactions())
	}
	if devA.Size() >= devB.Size() {
		t.Fatalf("compacted device (%d B) not smaller than raw log (%d B)", devA.Size(), devB.Size())
	}
	_, recA, _ := NewControlJournal(devA)
	_, recB, _ := NewControlJournal(devB)
	if len(recA.Finished) != len(recB.Finished) || len(recA.Finished) != 4 {
		t.Fatalf("finished: compacted %d vs raw %d", len(recA.Finished), len(recB.Finished))
	}
	for i := range recA.Finished {
		if recA.Finished[i].Job.Name != recB.Finished[i].Job.Name {
			t.Fatalf("finished[%d]: %s vs %s", i, recA.Finished[i].Job.Name, recB.Finished[i].Job.Name)
		}
	}
	if len(recA.Pending) != 1 || len(recB.Pending) != 1 ||
		recA.Pending[0].Job.Name != recB.Pending[0].Job.Name ||
		!recA.Pending[0].HasCkpt || recA.Pending[0].Ck.Hop1Via != "vncv1" {
		t.Fatalf("pending: compacted %+v vs raw %+v", recA.Pending, recB.Pending)
	}
	if recA.RetrySpent["gdrive"] != recB.RetrySpent["gdrive"] {
		t.Fatalf("retry spends: %v vs %v", recA.RetrySpent, recB.RetrySpent)
	}
}

// TestControlJournalTornKill pins the torn-append crash point: the
// record under the pen is torn mid-write, the control plane dies with
// it, and replay truncates exactly that tail.
func TestControlJournalTornKill(t *testing.T) {
	dev := journal.NewMemDevice()
	cj, _, _ := NewControlJournal(dev)
	cj.NoteSubmit(csJob("safe.bin"))
	cj.TornJournal(true)
	cj.NoteSubmit(csJob("torn.bin"))
	if !cj.Killed() {
		t.Fatal("torn append did not kill the control plane")
	}
	cj.NoteSubmit(csJob("ghost.bin")) // dead journal: must not land
	_, rec, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("replay truncated nothing")
	}
	if len(rec.Pending) != 1 || rec.Pending[0].Job.Name != "safe.bin" {
		t.Fatalf("recovered pending = %+v, want only safe.bin", rec.Pending)
	}
}
