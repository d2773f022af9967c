package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"detournet/internal/faults"
	"detournet/internal/multipath"
	"detournet/internal/rsyncx"
	"detournet/internal/scenario"
)

// chunkCoverage asserts the ledger invariant end-to-end: every chunk of
// the striped transfer was committed by exactly one path — nothing
// lost, nothing double-committed.
func chunkCoverage(t *testing.T, rep *multipath.Report) {
	t.Helper()
	seen := make(map[int]int)
	for _, pr := range rep.Paths {
		for _, c := range pr.Chunks {
			seen[c]++
		}
	}
	for i := 0; i < rep.NumChunks; i++ {
		if seen[i] != 1 {
			t.Fatalf("chunk %d committed %d times (want exactly 1)", i, seen[i])
		}
	}
	if len(seen) != rep.NumChunks {
		t.Fatalf("committed %d distinct chunks, layout has %d", len(seen), rep.NumChunks)
	}
}

// TestMultipathAcceptance pins the issue's acceptance numbers at seed
// 2015: striping beats the best single path by >=1.4x on at least one
// pair, never lands more than 5% below it on any pair, and no pair
// silently degrades to a single lane.
func TestMultipathAcceptance(t *testing.T) {
	o := RunMultipath(MultipathOptions{Seed: 2015})
	if err := MultipathSanity(o); err != nil {
		t.Fatalf("sanity: %v", err)
	}
	if best := o.BestSpeedup(); best < 1.4 {
		t.Errorf("best speedup %.2fx, want >= 1.4x", best)
	}
	if worst := o.WorstSpeedup(); worst < 1/1.05 {
		t.Errorf("worst speedup %.2fx, want >= %.3fx (<=1.05x worse guard)", worst, 1/1.05)
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
		chunkCoverage(t, pr.Striped.Multipath)
	}
}

// TestMultipathChurnBound drives the 480 MB churn leg across several
// seeds: the transfer must complete, cover every chunk exactly once,
// and keep re-sent bytes within one chunk per failure on every path.
func TestMultipathChurnBound(t *testing.T) {
	for _, seed := range []int64{7, 42, 2015} {
		c := RunMultipathChurn(seed)
		if c.Result().Err != nil {
			t.Fatalf("seed %d: churn transfer failed: %v", seed, c.Result().Err)
		}
		rep := c.Result().Multipath
		if rep == nil {
			t.Fatalf("seed %d: degraded to single-path under churn", seed)
		}
		chunkCoverage(t, rep)
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
	c := RunMultipathChurn(2015)
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
	run := func() (MultipathOutcome, MultipathChurnOutcome) {
		return RunMultipath(MultipathOptions{Seed: 2015}), RunMultipathChurn(2015)
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

// TestMultipathChurnDigestProperty is the end-to-end integrity property
// under scripted route churn: upload real bytes striped across lanes
// while the reconvergence storm withdraws sessions mid-transfer, then
// prove the reassembled object is the source object. The scheduler's
// commit already compares the provider-echoed digest against Job.MD5
// (so a pass means the composed object matched); on top of that we
// slice the source buffer at the exact Layout boundaries and check that
// concatenating the committed chunks in index order reproduces the
// source digest.
func TestMultipathChurnDigestProperty(t *testing.T) {
	const seed = 2015
	size := 240e6 // long enough to span the first withdraw at t=60
	buf := make([]byte, int(size))
	rand.New(rand.NewSource(seed)).Read(buf)
	md5 := rsyncx.Checksum(buf)

	w := scenario.Build(seed, scenario.WithDynamicRouting())
	faults.NewInjector(w, seed, faults.ChurnSchedule()...)
	exec := NewSimExecutor(w)
	defer exec.Close()

	var res Result
	s := New(Config{
		Workers:  1,
		Executor: exec, Planner: exec,
		Now:      exec.VirtualNow,
		Sleep:    exec.SleepVirtual,
		OnResult: func(r Result) { res = r },
	})
	s.Start()
	if err := s.Submit(Job{
		Tenant: "digest", Client: scenario.UBC, Provider: scenario.GoogleDrive,
		Name: "digest.bin", Size: size, MD5: md5, Mode: JobMultipath,
	}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	s.Close()

	if res.Err != nil {
		t.Fatalf("striped transfer failed under churn: %v", res.Err)
	}
	rep := res.Multipath
	if rep == nil {
		t.Fatal("degraded to single-path")
	}
	chunkCoverage(t, rep)

	sizes := multipath.Layout(rep.Size, rep.Chunk, len(rep.Paths), rep.TailSplit)
	if len(sizes) != rep.NumChunks {
		t.Fatalf("Layout gives %d chunks, report says %d", len(sizes), rep.NumChunks)
	}
	parts := make([][]byte, len(sizes))
	off := 0
	for i, sz := range sizes {
		parts[i] = buf[off : off+int(sz)]
		off += int(sz)
	}
	if off != len(buf) {
		t.Fatalf("layout covers %d of %d bytes", off, len(buf))
	}
	if got := rsyncx.ChecksumCat(parts...); got != md5 {
		t.Fatalf("reassembled digest %s != source digest %s", got, md5)
	}
	fails, drains := 0, 0
	for _, pr := range rep.Paths {
		fails += pr.Failures
		drains += pr.Drains
	}
	t.Logf("digest ok: %d chunks over %d paths, %d fails, %d drains, %.1f MB re-sent",
		rep.NumChunks, len(rep.Paths), fails, drains, res.Rewritten/1e6)
}
