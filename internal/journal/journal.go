// Package journal is a crash-consistent write-ahead log for the
// scheduler's control plane. Records are framed with a magic byte, a
// type tag, a little-endian length, and a CRC32C (Castagnoli) checksum
// over the type and payload, so a reader can always recover the longest
// valid prefix of a journal that was torn mid-append or bit-flipped at
// rest: scanning stops at the first frame that fails the magic, length,
// or checksum test, and replay truncates the tail beyond it.
//
// The log grows append-only between compactions. A compaction rewrites
// the device with one snapshot record and installs it atomically
// (Swap), so a crash during compaction leaves either the old journal or
// the new one — never a mix. The snapshot is built straight into its
// frame behind a reserved header (CompactInPlace), and Swap takes
// ownership of that buffer: the device keeps it as its content instead
// of copying it.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// ErrNoSpace reports an append the device refused because the log has
// reached its configured capacity. Callers that can shrink the log
// (compaction) should do so and retry; callers that cannot must degrade
// rather than tear the frame — a bounded device never persists a
// partial frame on ENOSPC, so the on-device prefix stays valid.
var ErrNoSpace = errors.New("journal: no space left on device")

// Frame layout: magic(1) type(1) len(4 LE) crc32c(4 LE) payload(len).
const (
	// Magic marks the start of every record frame.
	Magic = 0xA7
	// HeaderSize is the fixed frame overhead before the payload.
	HeaderSize = 10
	// MaxRecord bounds a single record's payload so a corrupted length
	// field cannot make the scanner chase gigabytes of garbage.
	MaxRecord = 16 << 20
)

// castagnoli is the CRC32C table (the polynomial used by ext4, iSCSI,
// and most storage-system WALs for exactly this job).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Rec is one decoded journal record.
type Rec struct {
	Type byte
	Data []byte
}

// Device is the persistence seam: an append-only byte log with an
// atomic whole-content swap for compaction. Implementations must make
// Swap atomic with respect to crashes (all-or-nothing).
type Device interface {
	// Bytes returns the current full content of the log.
	Bytes() []byte
	// Append writes b at the end of the log and returns the bytes
	// actually persisted (a torn write persists fewer than len(b)).
	Append(b []byte) (int, error)
	// Swap atomically replaces the whole log content with b. It takes
	// ownership of b: the device may keep b itself as its content (and
	// append into its spare capacity), so the caller must not modify or
	// reuse b after the call, whether or not it succeeds.
	Swap(b []byte) error
	// Size returns the current log length in bytes.
	Size() int
}

// Encode frames one record.
func Encode(typ byte, data []byte) []byte {
	f := make([]byte, HeaderSize+len(data))
	copy(f[HeaderSize:], data)
	putHeader(f, typ)
	return f
}

// putHeader fills the header of the frame f, whose payload already
// follows the HeaderSize bytes reserved for the header.
func putHeader(f []byte, typ byte) {
	data := f[HeaderSize:]
	f[0] = Magic
	f[1] = typ
	binary.LittleEndian.PutUint32(f[2:6], uint32(len(data)))
	crc := crc32.Update(0, castagnoli, []byte{typ})
	crc = crc32.Update(crc, castagnoli, data)
	binary.LittleEndian.PutUint32(f[6:10], crc)
}

// Scan decodes the longest valid prefix of b. It returns the records
// decoded and the byte offset of the end of the valid prefix; bytes
// beyond valid are a torn or corrupted tail. Scan never panics on any
// input.
func Scan(b []byte) (recs []Rec, valid int) {
	off := 0
	for off+HeaderSize <= len(b) {
		if b[off] != Magic {
			break
		}
		typ := b[off+1]
		n := int(binary.LittleEndian.Uint32(b[off+2 : off+6]))
		if n < 0 || n > MaxRecord || off+HeaderSize+n > len(b) {
			break
		}
		want := binary.LittleEndian.Uint32(b[off+6 : off+10])
		payload := b[off+HeaderSize : off+HeaderSize+n]
		crc := crc32.Update(0, castagnoli, []byte{typ})
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != want {
			break
		}
		data := make([]byte, n)
		copy(data, payload)
		recs = append(recs, Rec{Type: typ, Data: data})
		off += HeaderSize + n
	}
	return recs, off
}

// Replay scans the device and, if a torn or corrupted tail follows the
// valid prefix, truncates the log back to the prefix so subsequent
// appends start from a clean frame boundary. It returns the recovered
// records and the number of tail bytes discarded.
func Replay(dev Device) (recs []Rec, truncated int, err error) {
	b := dev.Bytes()
	recs, valid := Scan(b)
	if valid < len(b) {
		truncated = len(b) - valid
		prefix := make([]byte, valid)
		copy(prefix, b[:valid])
		if err := dev.Swap(prefix); err != nil {
			return recs, truncated, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	return recs, truncated, nil
}

// Writer appends framed records to a device.
type Writer struct {
	dev Device
}

// NewWriter returns a Writer over dev.
func NewWriter(dev Device) *Writer { return &Writer{dev: dev} }

// Append frames and appends one record. A short (torn) append is not an
// error here — it models a crash mid-write; the torn frame is discarded
// by the next Replay.
func (w *Writer) Append(typ byte, data []byte) error {
	_, err := w.dev.Append(Encode(typ, data))
	return err
}

// CompactInPlace atomically replaces the log with one record framed in
// place: buf[:HeaderSize] is reserved for the frame header, which
// CompactInPlace fills (magic, type, length, CRC32C), and
// buf[HeaderSize:] already holds the payload, so a large snapshot is
// never copied into a frame. The device takes ownership of buf (see
// Device.Swap).
func (w *Writer) CompactInPlace(typ byte, buf []byte) error {
	if len(buf) < HeaderSize {
		return fmt.Errorf("journal: compact: %d-byte buffer has no room for the %d-byte header", len(buf), HeaderSize)
	}
	putHeader(buf, typ)
	return w.dev.Swap(buf)
}

// Device returns the underlying device.
func (w *Writer) Device() Device { return w.dev }

// --- MemDevice ---

// MemDevice is an in-memory Device with crash-injection hooks: the
// fault layer uses TornNextAppend to persist only a prefix of the next
// append (a torn write) and FlipByte to corrupt a byte at rest (bit
// rot).
type MemDevice struct {
	buf []byte
	// tornFrac, when in (0,1), truncates the next Append to that
	// fraction of the frame.
	tornFrac float64
	// Appends counts Append calls (for crash-point scheduling).
	Appends int
	// Capacity bounds the log size in bytes; zero means unbounded. An
	// Append that would exceed it persists nothing and returns
	// ErrNoSpace (whole-frame rejection, never a torn frame). Swap is
	// allowed whenever the new content itself fits, which is what lets
	// a compaction shrink an already-full log.
	Capacity int
	savedCap int
	clamped  bool
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// Bytes implements Device.
func (m *MemDevice) Bytes() []byte { return m.buf }

// Size implements Device.
func (m *MemDevice) Size() int { return len(m.buf) }

// Append implements Device, honoring a pending torn-write injection.
func (m *MemDevice) Append(b []byte) (int, error) {
	m.Appends++
	if m.Capacity > 0 && len(m.buf)+len(b) > m.Capacity {
		return 0, ErrNoSpace
	}
	n := len(b)
	if m.tornFrac > 0 && m.tornFrac < 1 {
		n = int(float64(len(b)) * m.tornFrac)
		if n >= len(b) {
			n = len(b) - 1
		}
		if n < 1 {
			n = 1
		}
		m.tornFrac = 0
	}
	m.buf = append(m.buf, b[:n]...)
	return n, nil
}

// Swap implements Device, keeping b as the new content. A swap whose
// new content itself exceeds the capacity is refused; a swap that
// shrinks (or fits) always succeeds, even on a full device — compaction
// must be able to reclaim space.
func (m *MemDevice) Swap(b []byte) error {
	if m.Capacity > 0 && len(b) > m.Capacity {
		return ErrNoSpace
	}
	m.buf = b
	return nil
}

// TornNextAppend arms a torn write: the next Append persists only frac
// of its bytes (clamped to at least 1 and at most len-1).
func (m *MemDevice) TornNextAppend(frac float64) {
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	m.tornFrac = frac
}

// FlipByte XORs the byte at off with 0xFF, silently ignoring an
// out-of-range offset — bit rot never errors.
func (m *MemDevice) FlipByte(off int) {
	if off >= 0 && off < len(m.buf) {
		m.buf[off] ^= 0xFF
	}
}

// ClampCapacity arms an ENOSPC condition: the capacity is pinned at
// the current log size, so every further append fails with ErrNoSpace
// until the log shrinks (compaction) or UnclampCapacity restores the
// configured bound. Idempotent.
func (m *MemDevice) ClampCapacity() {
	if m.clamped {
		return
	}
	m.savedCap, m.clamped = m.Capacity, true
	m.Capacity = len(m.buf)
	if m.Capacity == 0 {
		m.Capacity = 1 // an empty log still refuses appends while clamped
	}
}

// UnclampCapacity restores the capacity ClampCapacity saved.
func (m *MemDevice) UnclampCapacity() {
	if !m.clamped {
		return
	}
	m.Capacity, m.clamped = m.savedCap, false
}

// --- FileDevice ---

// FileDevice persists the log in a file; Swap writes a temp file in the
// same directory and renames it over the log, the standard atomic
// -install idiom. It carries the same crash-injection hooks as
// MemDevice (TornNextAppend, FlipByte) so the fault layer can tear and
// rot a real on-disk journal.
type FileDevice struct {
	path     string
	buf      []byte
	tornFrac float64
	// Capacity bounds the log size in bytes; zero means unbounded.
	// Semantics match MemDevice: Append past the bound persists
	// nothing and returns ErrNoSpace; Swap succeeds whenever the new
	// content fits.
	Capacity int
	savedCap int
	clamped  bool
}

// OpenFileDevice opens (or creates) the journal file at path and loads
// its content.
func OpenFileDevice(path string) (*FileDevice, error) {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return &FileDevice{path: path, buf: b}, nil
}

// Path returns the backing file path.
func (f *FileDevice) Path() string { return f.path }

// Bytes implements Device.
func (f *FileDevice) Bytes() []byte { return f.buf }

// Size implements Device.
func (f *FileDevice) Size() int { return len(f.buf) }

// Append implements Device, honoring a pending torn-write injection.
func (f *FileDevice) Append(b []byte) (int, error) {
	if f.Capacity > 0 && len(f.buf)+len(b) > f.Capacity {
		return 0, ErrNoSpace
	}
	if f.tornFrac > 0 && f.tornFrac < 1 {
		n := int(float64(len(b)) * f.tornFrac)
		if n >= len(b) {
			n = len(b) - 1
		}
		if n < 1 {
			n = 1
		}
		f.tornFrac = 0
		b = b[:n]
	}
	fh, err := os.OpenFile(f.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := fh.Write(b)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	f.buf = append(f.buf, b[:n]...)
	return n, err
}

// Swap implements Device via temp-file + rename, keeping b as the
// in-memory copy. Like MemDevice, a swap is refused only when the new
// content itself exceeds Capacity.
func (f *FileDevice) Swap(b []byte) error {
	if f.Capacity > 0 && len(b) > f.Capacity {
		return ErrNoSpace
	}
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, f.path); err != nil {
		os.Remove(tmp)
		return err
	}
	f.buf = b
	return nil
}

// TornNextAppend arms a torn write: the next Append persists only frac
// of its bytes (clamped to at least 1 and at most len-1).
func (f *FileDevice) TornNextAppend(frac float64) {
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	f.tornFrac = frac
}

// FlipByte XORs the byte at off with 0xFF, in memory and on disk,
// silently ignoring an out-of-range offset — bit rot never errors.
func (f *FileDevice) FlipByte(off int) {
	if off < 0 || off >= len(f.buf) {
		return
	}
	f.buf[off] ^= 0xFF
	fh, err := os.OpenFile(f.path, os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	fh.WriteAt(f.buf[off:off+1], int64(off)) //nolint:errcheck // silent by construction
	fh.Close()
}

// ClampCapacity arms an ENOSPC condition (see MemDevice.ClampCapacity).
func (f *FileDevice) ClampCapacity() {
	if f.clamped {
		return
	}
	f.savedCap, f.clamped = f.Capacity, true
	f.Capacity = len(f.buf)
	if f.Capacity == 0 {
		f.Capacity = 1
	}
}

// UnclampCapacity restores the capacity ClampCapacity saved.
func (f *FileDevice) UnclampCapacity() {
	if !f.clamped {
		return
	}
	f.Capacity, f.clamped = f.savedCap, false
}
