package sched

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"detournet/internal/journal"
)

// TestReplaysDeterministic: every committed replay, run twice at its
// committed seed, prints byte-identical output and passes its own
// sanity check — the property `make check` re-verifies across
// processes through detourd -replay.
func TestReplaysDeterministic(t *testing.T) {
	names := make([]string, 0, len(Replays))
	for name := range Replays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := Replays[name]
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

// TestJournalDumpReadOnly: dumping a journal with a torn tail reports
// the tail but leaves the file byte-for-byte as it was, and the
// printed size is the file's size.
func TestJournalDumpReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "control.wal")
	dev, err := journal.OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	cj, _, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	cj.NoteSubmit(csJob("safe.bin"))
	cj.TornJournal(true)
	cj.NoteSubmit(csJob("torn.bin"))
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := WriteJournalDump(&out, path); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("dump rewrote the journal: %d B before, %d B after", len(before), len(after))
	}
	if want := fmt.Sprintf(": 1 records, %d B (torn tail:", len(before)); !strings.Contains(out.String(), want) {
		t.Fatalf("dump header missing %q:\n%s", want, out.String())
	}
}
