package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"detournet/internal/core"
	"detournet/internal/journal"
	"detournet/internal/sdk"
)

// liveRecovered renders the journal's live fold as a restart would see
// it.
func liveRecovered(cj *ControlJournal) *Recovered {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.state.recovered()
}

// cloneDevice copies a device's content into a fresh in-memory device.
func cloneDevice(dev journal.Device) *journal.MemDevice {
	m := journal.NewMemDevice()
	m.Swap(bytes.Clone(dev.Bytes())) //nolint:errcheck // unbounded device
	return m
}

// replayMismatch replays a copy of cj's device and reports where the
// result differs from cj's live fold (nil when it does not).
func replayMismatch(cj *ControlJournal) error {
	live := liveRecovered(cj)
	_, rep, err := NewControlJournal(cloneDevice(cj.Device()))
	if err != nil {
		return err
	}
	switch {
	case !reflect.DeepEqual(live.Finished, rep.Finished):
		return fmt.Errorf("finished: live %+v, replay %+v", live.Finished, rep.Finished)
	case !reflect.DeepEqual(live.Pending, rep.Pending):
		return fmt.Errorf("pending: live %+v, replay %+v", live.Pending, rep.Pending)
	case !reflect.DeepEqual(live.RetrySpent, rep.RetrySpent):
		return fmt.Errorf("retry spends: live %v, replay %v", live.RetrySpent, rep.RetrySpent)
	case !reflect.DeepEqual(live.CapsHeld, rep.CapsHeld):
		return fmt.Errorf("caps held: live %v, replay %v", live.CapsHeld, rep.CapsHeld)
	}
	return nil
}

// snapshot renders the folded state as a typed snapshotRec, decoding
// the cached finished-job encodings: json.Marshal of it is the
// reference the hand-assembled compaction payload must equal.
func (st *foldState) snapshot() snapshotRec {
	snap := snapshotRec{
		NextSeq:    st.nextSeq,
		Pending:    st.pendingBySeq(),
		RetrySpent: st.retrySpent,
		CapsHeld:   st.capsHeld,
	}
	for _, enc := range st.finished {
		var fj finishedJob
		if err := json.Unmarshal(enc, &fj); err != nil {
			panic(err)
		}
		snap.Finished = append(snap.Finished, fj)
	}
	return snap
}

// snapshotMismatch compares the compaction payload with the reference
// encoding.
func snapshotMismatch(cj *ControlJournal) error {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	want, err := json.Marshal(cj.state.snapshot())
	if err != nil {
		return err
	}
	if got := cj.state.appendSnapshot(nil); !bytes.Equal(got, want) {
		return fmt.Errorf("snapshot payload\n got %s\nwant %s", got, want)
	}
	return nil
}

func compactNow(t testing.TB, cj *ControlJournal) {
	t.Helper()
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if err := cj.compactLocked(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredIsACopy: the Recovered a journal hands out shares no
// state with the journal, which keeps folding into its own maps once
// the restarted scheduler runs.
func TestRecoveredIsACopy(t *testing.T) {
	dev := journal.NewMemDevice()
	cj, _, _ := NewControlJournal(dev)
	j := csJob("copy.bin")
	j.AltProviders = []string{"dropbox"}
	cj.NoteSubmit(j)
	cj.NoteRetry("gdrive")
	cj.NoteCap("gdrive", "edmn1", true)

	cj2, rec, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	cj2.NoteRetry("gdrive")
	cj2.NoteRetry("dropbox")
	cj2.NoteCap("gdrive", "edmn1", true)
	if got := rec.RetrySpent; !reflect.DeepEqual(got, map[string]int{"gdrive": 1}) {
		t.Fatalf("earlier Recovered.RetrySpent changed under the caller: %v", got)
	}
	if got := rec.CapsHeld; !reflect.DeepEqual(got, map[string]int{"gdrive|edmn1": 1}) {
		t.Fatalf("earlier Recovered.CapsHeld changed under the caller: %v", got)
	}
	rec.Pending[0].Job.AltProviders[0] = "mutated"
	if got := liveRecovered(cj2).Pending[0].Job.AltProviders[0]; got != "dropbox" {
		t.Fatalf("mutating Recovered.Pending reached the journal: %q", got)
	}
}

// TestControlJournalNoAliasing: the fold keeps its own copy of every
// slice a caller hands it, so changing the slice after the call
// changes neither the live state, its snapshot, nor a replay.
func TestControlJournalNoAliasing(t *testing.T) {
	dev := journal.NewMemDevice()
	cj, _, _ := NewControlJournal(dev)
	cj.SetCompactEvery(0)
	alt := []string{"dropbox", "onedrive"}
	j := csJob("alias.bin")
	j.AltProviders = alt
	cj.NoteSubmit(j)
	done := csJob("alias-done.bin")
	doneAlt := []string{"onedrive"}
	done.AltProviders = doneAlt
	cj.NoteSubmit(done)
	cj.NoteFinish(&Result{Job: done, Route: core.DirectRoute, Attempts: 1})
	paths, chunks := []string{"direct", "edmn1"}, []int{3, 5}
	cj.NoteLanes(j.Name, paths, chunks)

	cj.mu.Lock()
	before := cj.state.appendSnapshot(nil)
	cj.mu.Unlock()
	alt[0], doneAlt[0], paths[0], chunks[0] = "mutated", "mutated", "mutated", 99

	cj.mu.Lock()
	after := cj.state.appendSnapshot(nil)
	cj.mu.Unlock()
	if !bytes.Equal(before, after) {
		t.Fatalf("caller's slices reached the folded state:\nbefore %s\nafter  %s", before, after)
	}
	live := liveRecovered(cj)
	if got := live.Pending[0].Job.AltProviders; !reflect.DeepEqual(got, []string{"dropbox", "onedrive"}) {
		t.Fatalf("live pending AltProviders = %v", got)
	}
	if got := live.Finished[0].Job.AltProviders; !reflect.DeepEqual(got, []string{"onedrive"}) {
		t.Fatalf("live finished AltProviders = %v", got)
	}
	compactNow(t, cj)
	if err := replayMismatch(cj); err != nil {
		t.Fatal(err)
	}
	// What TakeRecovered hands out is the caller's to change, too.
	cj.NoteAttempt(j, 1, core.DirectRoute)
	cj.TakeRecovered(j.Name).Job.AltProviders[0] = "mutated"
	if got := liveRecovered(cj).Pending[0].Job.AltProviders[0]; got != "dropbox" {
		t.Fatalf("mutating TakeRecovered's job reached the journal: %q", got)
	}
}

// TestSnapshotPayloadOracle: the compaction payload assembled from
// cached encodings equals json.Marshal of the typed snapshot byte for
// byte, across the shapes the encoding special-cases.
func TestSnapshotPayloadOracle(t *testing.T) {
	submit := func(cj *ControlJournal, names ...string) {
		for _, n := range names {
			cj.NoteSubmit(csJob(n))
		}
	}
	finish := func(cj *ControlJournal, names ...string) {
		for _, n := range names {
			cj.NoteFinish(&Result{Job: csJob(n), Route: core.DirectRoute, Seconds: 1.25, Attempts: 1})
		}
	}
	cases := []struct {
		name  string
		build func(cj *ControlJournal)
	}{
		{"empty", func(*ControlJournal) {}},
		{"no pending", func(cj *ControlJournal) {
			submit(cj, "a.bin", "b.bin")
			finish(cj, "a.bin", "b.bin")
			cj.NoteRetry("gdrive")
		}},
		{"no finished", func(cj *ControlJournal) {
			submit(cj, "a.bin", "b.bin")
			cj.NoteAttempt(csJob("a.bin"), 1, core.Route{Kind: core.Detour, Via: "edmn1"})
			cj.NoteCkpt(csJob("a.bin"), &core.Checkpoint{Hop1Via: "edmn1", Hop1High: 3e5}, 3e5)
			cj.NoteCap("gdrive", "edmn1", true)
		}},
		{"escaping and non-ASCII", func(cj *ControlJournal) {
			submit(cj, "a<b>&c.bin", "ünï☃ .bin", "plain.bin")
			finish(cj, "a<b>&c.bin")
			cj.NoteFinish(&Result{Job: csJob("ünï☃ .bin"), Err: fmt.Errorf("<quota & more>")})
			cj.NoteRetry("<gdrive&>")
			cj.NoteCap("dröpbox", "<via>", true)
		}},
		{"alt providers nil vs empty", func(cj *ControlJournal) {
			for i, alt := range [][]string{nil, {}, {"dropbox", "onedrive"}} {
				for _, state := range []string{"pending", "finished"} {
					j := csJob(fmt.Sprintf("alt-%d-%s.bin", i, state))
					j.AltProviders = alt
					cj.NoteSubmit(j)
					if state == "finished" {
						cj.NoteFinish(&Result{Job: j, Route: core.DirectRoute, Attempts: 1})
					}
				}
			}
		}},
		{"pending changed after caching", func(cj *ControlJournal) {
			submit(cj, "a.bin", "b.bin", "c.bin")
			finish(cj, "c.bin")
			compactNow(t, cj) // caches a.bin's and b.bin's encodings
			cj.NoteAttempt(csJob("a.bin"), 2, core.DirectRoute)
			cj.NoteCkpt(csJob("b.bin"), &core.Checkpoint{Hop1Via: "vncv1", Hop1High: 1e5}, 1e5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := journal.NewMemDevice()
			cj, _, _ := NewControlJournal(dev)
			cj.SetCompactEvery(0)
			tc.build(cj)
			if err := snapshotMismatch(cj); err != nil {
				t.Fatal(err)
			}
			// The same state rebuilt from a replayed snapshot encodes the
			// same bytes, before and after a recovered job is handed out.
			compactNow(t, cj)
			cj2, _, err := NewControlJournal(cloneDevice(dev))
			if err != nil {
				t.Fatal(err)
			}
			if err := snapshotMismatch(cj2); err != nil {
				t.Fatalf("replayed: %v", err)
			}
			cj2.mu.Lock()
			got, want := cj2.state.appendSnapshot(nil), dev.Bytes()[journal.HeaderSize:]
			cj2.mu.Unlock()
			if !bytes.Equal(got, want) {
				t.Fatalf("replayed state re-encodes differently:\n got %s\nwant %s", got, want)
			}
			for _, pj := range liveRecovered(cj2).Pending {
				cj2.TakeRecovered(pj.Job.Name)
			}
			if err := snapshotMismatch(cj2); err != nil {
				t.Fatalf("after TakeRecovered: %v", err)
			}
		})
	}
}

// TestControlJournalReplayEqualsLive drives a seeded random record
// stream — submits, resubmits, attempts, checkpoints, caps, retries,
// lanes, duplicate finishes and compactions, over names that need
// escaping or are not valid UTF-8 — and after every append checks that
// replaying a copy of the device recovers the live fold, and that the
// compaction payload matches its reference encoding.
func TestControlJournalReplayEqualsLive(t *testing.T) {
	names := []string{
		"a.bin", "b.bin", "c<d>&e.bin", "ünï☃.bin", "bad-\xff\xfe.bin",
		"f.bin", "g.bin", "h.bin", "i.bin", "j.bin",
	}
	alts := [][]string{nil, {}, {"dropbox"}, {"dropbox", "onedrive"}}
	provs := []string{"gdrive", "dropbox", "onedrive"}
	vias := []string{"", "edmn1", "vncv1"}
	steps := 600
	if testing.Short() {
		steps = 200
	}
	rng := rand.New(rand.NewSource(2015))
	dev := journal.NewMemDevice()
	cj, _, _ := NewControlJournal(dev)
	cj.SetCompactEvery(5)
	var submitted []Job
	pick := func() Job { return submitted[rng.Intn(len(submitted))] }
	mixed := 0 // steps with both pending and finished jobs held
	for step := 0; step < steps; step++ {
		op := rng.Intn(10)
		if len(submitted) == 0 {
			op = 0
		}
		switch op {
		case 0:
			j := csJob(fmt.Sprintf("%d-%s", rng.Intn(len(submitted)+3), names[rng.Intn(len(names))]))
			j.AltProviders = alts[rng.Intn(len(alts))]
			j.Priority = rng.Intn(3)
			cj.NoteSubmit(j)
			submitted = append(submitted, j)
		case 1:
			cj.NoteAttempt(pick(), 1+rng.Intn(4), core.Route{Kind: core.RouteKind(rng.Intn(2)), Via: vias[rng.Intn(len(vias))]})
		case 2, 3:
			j := pick()
			ck := &core.Checkpoint{
				Hop1Via: vias[rng.Intn(len(vias))], Hop1High: float64(rng.Intn(1e6)),
				HasSession: rng.Intn(2) == 0, Hop2High: rng.Float64() * 1e6,
				BytesResumed: float64(rng.Intn(1e5)), ChunkRepairs: rng.Intn(3),
			}
			if ck.HasSession {
				ck.Session = sdk.SessionToken{Provider: j.Provider, Ref: fmt.Sprintf("sess-%d", step), Name: j.Name, Size: j.Size, Offset: ck.Hop2High}
			}
			cj.NoteCkpt(j, ck, rng.Float64()*j.Size)
		case 4:
			cj.NoteCap(provs[rng.Intn(len(provs))], vias[rng.Intn(len(vias))], rng.Intn(3) > 0)
		case 5:
			cj.NoteRetry(provs[rng.Intn(len(provs))])
		case 6:
			cj.NoteLanes(pick().Name, []string{"direct", "edmn1"}, []int{rng.Intn(9), rng.Intn(9)})
		case 7, 8:
			// Finishing a job picked at random finishes some twice: the
			// duplicate finish of a replayed ack.
			res := &Result{Job: pick(), Route: core.DirectRoute, Seconds: rng.Float64() * 100, Attempts: 1 + rng.Intn(3)}
			if rng.Intn(4) == 0 {
				res.Err = fmt.Errorf("quota <exhausted> & step %d", step)
			}
			cj.NoteFinish(res)
		case 9:
			compactNow(t, cj)
		}
		if err := replayMismatch(cj); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
		if err := snapshotMismatch(cj); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
		cj.mu.Lock()
		if len(cj.state.pending) > 0 && len(cj.state.finished) > 0 {
			mixed++
		}
		cj.mu.Unlock()
	}
	if cj.Compactions() == 0 || mixed < steps/4 || cj.state.dupFinish == 0 {
		t.Fatalf("stream too tame: %d compactions, %d mixed steps, %d duplicate finishes",
			cj.Compactions(), mixed, cj.state.dupFinish)
	}
}

// discardDevice is a journal device that keeps nothing, so an append
// benchmark's memory stays flat however many records it writes.
type discardDevice struct{}

func (discardDevice) Bytes() []byte                { return nil }
func (discardDevice) Append(b []byte) (int, error) { return len(b), nil }
func (discardDevice) Swap([]byte) error            { return nil }
func (discardDevice) Size() int                    { return 0 }

// BenchmarkControlJournalCkpt measures one checkpoint record: marshal,
// frame, device append and the live fold.
func BenchmarkControlJournalCkpt(b *testing.B) {
	cj, _, err := NewControlJournal(discardDevice{})
	if err != nil {
		b.Fatal(err)
	}
	j := csJob("bench.bin")
	cj.NoteSubmit(j)
	ck := &core.Checkpoint{
		Hop1Via: "edmn1", Hop1High: 4e5, HasSession: true,
		Session: sdk.SessionToken{Provider: "gdrive", Ref: "sess-1", Name: j.Name, Size: j.Size, Offset: 2e5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cj.NoteCkpt(j, ck, float64(i))
	}
}

// BenchmarkControlJournalCompact measures one compaction with n
// finished jobs (and 8 pending ones) held in the folded state.
func BenchmarkControlJournalCompact(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			cj, _, err := NewControlJournal(journal.NewMemDevice())
			if err != nil {
				b.Fatal(err)
			}
			cj.SetCompactEvery(0)
			for i := 0; i < n+8; i++ {
				cj.NoteSubmit(csJob(fmt.Sprintf("bench-%04d.bin", i)))
			}
			for i := 0; i < n; i++ {
				j := csJob(fmt.Sprintf("bench-%04d.bin", i))
				cj.NoteAttempt(j, 1, core.DirectRoute)
				cj.NoteFinish(&Result{Job: j, Route: core.DirectRoute, Seconds: 3.5, Attempts: 1})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compactNow(b, cj)
			}
		})
	}
}
