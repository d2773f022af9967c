package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"detournet/internal/experiments"
)

// TestAllOutputDigest pins every byte `detourbench -experiment all`
// prints at the default flags (seed 2015, 7 runs, keep 5) against the
// SHA-256 committed in testdata/all.sha256. TestGoldenNumbers allows
// ±1% per headline cell; this catches a change that moves any float
// bit of any table or figure. When an output change is intended,
// regenerate the file with
//
//	go run ./cmd/detourbench -experiment all | sha256sum >cmd/detourbench/testdata/all.sha256
func TestAllOutputDigest(t *testing.T) {
	want, err := os.ReadFile("testdata/all.sha256")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	writeAll(&out, &experiments.Suite{Options: experiments.Options{Seed: 2015, Runs: 7, Keep: 5}})
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != strings.Fields(string(want))[0] {
		t.Fatalf("detourbench -experiment all output sha256 %s, committed %s", got, strings.Fields(string(want))[0])
	}
}
