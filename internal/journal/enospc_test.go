package journal

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// TestMemDeviceENOSPCWholeFrame: a bounded MemDevice rejects an append
// that does not fit as a whole — never a torn frame — and the log
// replays cleanly afterwards with only the accepted records.
func TestMemDeviceENOSPCWholeFrame(t *testing.T) {
	m := NewMemDevice()
	w := NewWriter(m)
	rec := []byte("0123456789")
	frame := len(Encode(1, rec))
	m.Capacity = 2*frame + frame/2 // room for two frames, not three
	for i := 0; i < 2; i++ {
		if err := w.Append(1, rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	before := m.Size()
	err := w.Append(1, rec)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overfull append err = %v, want ErrNoSpace", err)
	}
	if m.Size() != before {
		t.Fatalf("rejected append changed the log: %d -> %d bytes", before, m.Size())
	}
	recs, truncated, err := Replay(m)
	if err != nil || truncated != 0 {
		t.Fatalf("replay: %d truncated, err %v", truncated, err)
	}
	if len(recs) != 2 || !bytes.Equal(recs[1].Data, rec) {
		t.Fatalf("replay found %d records, want the 2 accepted ones", len(recs))
	}
}

// TestMemDeviceSwapFitsSemantics: Swap (compaction) is judged against
// the capacity by its own size, not the current log's — a full log can
// always shrink, and a snapshot over capacity is refused atomically.
func TestMemDeviceSwapFitsSemantics(t *testing.T) {
	m := NewMemDevice()
	w := NewWriter(m)
	rec := []byte("0123456789")
	m.Capacity = 3 * len(Encode(1, rec))
	for i := 0; i < 3; i++ {
		if err := w.Append(1, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CompactInPlace(2, framed("snap")); err != nil {
		t.Fatalf("shrinking swap on a full log: %v", err)
	}
	if err := w.Append(1, rec); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	big := make([]byte, m.Capacity+1)
	before := m.Size()
	if err := m.Swap(big); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversize swap err = %v, want ErrNoSpace", err)
	}
	if m.Size() != before {
		t.Fatal("refused swap mutated the log")
	}
}

// TestMemDeviceClampUnclamp: ClampCapacity pins the bound at the
// current size (refusing all appends), is idempotent, and
// UnclampCapacity restores the configured bound — including the
// unbounded case.
func TestMemDeviceClampUnclamp(t *testing.T) {
	m := NewMemDevice() // unbounded
	w := NewWriter(m)
	rec := []byte("0123456789")
	if err := w.Append(1, rec); err != nil {
		t.Fatal(err)
	}
	m.ClampCapacity()
	m.ClampCapacity() // idempotent: must not overwrite the saved bound
	if err := w.Append(1, rec); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("clamped append err = %v, want ErrNoSpace", err)
	}
	// Compaction still works under the clamp: a smaller snapshot fits.
	if err := w.CompactInPlace(2, framed("s")); err != nil {
		t.Fatalf("compaction under clamp: %v", err)
	}
	m.UnclampCapacity()
	if m.Capacity != 0 {
		t.Fatalf("unclamp restored capacity %d, want the unbounded 0", m.Capacity)
	}
	if err := w.Append(1, rec); err != nil {
		t.Fatalf("append after unclamp: %v", err)
	}
}

// TestMemDeviceClampEmptyLog: clamping an empty log still refuses
// appends (capacity floors at one byte rather than going unbounded).
func TestMemDeviceClampEmptyLog(t *testing.T) {
	m := NewMemDevice()
	m.ClampCapacity()
	if err := NewWriter(m).Append(1, []byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append to clamped empty log err = %v, want ErrNoSpace", err)
	}
}

// TestFileDeviceENOSPC: the file-backed device honors the same bound —
// whole-frame rejection on append, swap judged by the new content.
func TestFileDeviceENOSPC(t *testing.T) {
	f, err := OpenFileDevice(filepath.Join(t.TempDir(), "ctl.journal"))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	rec := []byte("012345678901234567890123456789")
	frame := len(Encode(1, rec))
	f.Capacity = frame + frame/2 // one frame plus a snapshot's worth
	if err := w.Append(1, rec); err != nil {
		t.Fatal(err)
	}
	before := f.Size()
	if err := w.Append(1, rec); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overfull append err = %v, want ErrNoSpace", err)
	}
	if f.Size() != before {
		t.Fatal("rejected append changed the file log")
	}
	if err := w.CompactInPlace(2, framed("s")); err != nil {
		t.Fatalf("shrinking swap: %v", err)
	}
	if err := w.Append(1, rec); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	// Reopen: the surviving log is exactly the snapshot plus the tail.
	g, err := OpenFileDevice(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := Replay(g)
	if err != nil || truncated != 0 || len(recs) != 2 {
		t.Fatalf("reopened replay: %d recs, %d truncated, err %v", len(recs), truncated, err)
	}
}
