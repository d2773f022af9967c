package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"detournet/internal/replay"
)

// TestReplayDigests pins every byte each committed replay prints
// (`detourd -replay NAME` at its committed seed) against the SHA-256
// in testdata/replays.sha256, so an output change between commits
// fails here, not only a difference between two runs of one build.
// When an output change is intended, regenerate the file over the
// keys of replay.Replays with
//
//	for r in churn crashsafe grayfail multipath overload pressure telemetry; do
//		go run ./cmd/detourd -replay $r | sha256sum | sed "s/-\$/$r/"
//	done >cmd/detourd/testdata/replays.sha256
func TestReplayDigests(t *testing.T) {
	f, err := os.Open("testdata/replays.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			want[fields[1]] = fields[0]
		}
	}
	names := sortedKeys(replay.Replays)
	if len(want) != len(names) {
		t.Fatalf("testdata lists %d replays, replay.Replays has %d (%v)", len(want), len(names), names)
	}
	for _, name := range names {
		e := replay.Replays[name]
		var out bytes.Buffer
		if err := e.Run(&out, e.Seed); err != nil {
			t.Fatalf("replay %s: %v", name, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("replay %s output sha256 %s, committed %q", name, got, want[name])
		}
	}
}

// TestMakefileReplays checks that the Makefile's REPLAYS list, which
// `make check` byte-compares across two runs, names exactly the
// entries of replay.Replays, so a new replay cannot skip that loop.
func TestMakefileReplays(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^REPLAYS\s*=(.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no REPLAYS line")
	}
	listed := strings.Fields(string(m[1]))
	sort.Strings(listed)
	names := sortedKeys(replay.Replays)
	if strings.Join(listed, " ") != strings.Join(names, " ") {
		t.Errorf("Makefile REPLAYS = %v, replay.Replays has %v", listed, names)
	}
}
