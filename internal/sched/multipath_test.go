package sched

import (
	"math/rand"
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
