package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"detournet/internal/cloudsim"
	"detournet/internal/sched"
)

// instance is one prepared iteration of a workload: set-up (world
// builds, trace generation, scheduler and journal construction) has
// run; run is the timed phase.
type instance interface {
	run() *outcome
}

// outcome is what one iteration produced: the virtual results the
// end-to-end metrics and the digest are computed from, the program's
// own counters for the per-layer metrics, and every correctness-gate
// violation.
type outcome struct {
	jobs   int       // jobs attempted (paper-grid: measured uploads)
	failed int       // jobs without a successful outcome
	vs     []float64 // virtual transfer seconds of completed jobs
	bytes  float64   // delivered bytes
	vsec   float64   // virtual seconds spanned, summed over worlds
	resent float64   // bytes sent more than once
	events uint64    // simulation events processed, summed over worlds

	lines    []string // virtual outputs, hashed into the digest
	failures []string // failed jobs with their errors, for the report
	errs     []string // correctness-gate violations

	// Program-side counters (per-layer metrics).
	cacheHits, cacheMisses             int64
	retries, reroutes, hedges, fallbks int64
	jAppends, jCompactions             int
	replayRecords                      int
	maxCommits, dupSuppressed          int
	hedgeDupCommits                    int
	devBytes                           int64
}

func (o *outcome) failf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// addResult folds one terminal scheduler result into the outcome.
func (o *outcome) addResult(prefix string, r sched.Result) {
	o.jobs++
	class := "ok"
	if r.Err != nil {
		o.failed++
		class = sched.Classify(r.Err).String()
		o.failures = append(o.failures, prefix+r.Job.Name+": "+r.Err.Error())
	} else {
		o.vs = append(o.vs, r.Seconds)
		o.bytes += r.Job.Size
	}
	o.resent += r.Rewritten
	o.lines = append(o.lines, fmt.Sprintf("%s%s %s %s %d %s",
		prefix, r.Job.Name, r.Route, fmtF(r.Seconds), r.Attempts, class))
}

// addStats folds one scheduler incarnation's counters.
func (o *outcome) addStats(st sched.Stats) {
	o.cacheHits += st.CacheHits
	o.cacheMisses += st.CacheMisses
	o.retries += st.Retries
	o.reroutes += st.Reroutes
	o.hedges += st.Hedges
	o.fallbks += st.Fallbacks
}

// digest hashes the sorted virtual outputs.
func (o *outcome) digest() string {
	lines := append([]string(nil), o.lines...)
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// typed reports whether a failed job ended with an error the
// scheduler's failure taxonomy or its sentinel set names.
func typed(err error) bool {
	if err == nil || sched.Classify(err) != sched.FailUnknown {
		return true
	}
	for _, s := range []error{sched.ErrDeadline, sched.ErrClosed, sched.ErrRateLimited,
		sched.ErrShed, sched.ErrRetryBudget, sched.ErrQueueFull, sched.ErrCrashKilled} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// checkJobs asserts the control-plane gates for one scheduler run:
// every submitted job ends exactly once with a typed outcome, the
// provider holds each successful job's object with the submitted size
// and digest, and no object was materialized more than once.
//
// One exception is counted rather than failed: a hedged race whose
// loser committed before its cancellation landed. The hedge's direct
// upload carries no idempotent attempt ID, so both racers can
// materialize the object; hedgeDupCommits reports how often.
func (o *outcome) checkJobs(label string, submitted []sched.Job, results []sched.Result, stores map[string]*cloudsim.Service) {
	ends := make(map[string]int, len(results))
	ok := make(map[string]bool, len(results))
	hedged := make(map[string]bool)
	for _, r := range results {
		ends[r.Job.Name]++
		if !typed(r.Err) {
			o.failf("%s: job %s ended with an untyped error: %v", label, r.Job.Name, r.Err)
		}
		ok[r.Job.Name] = r.Err == nil
		hedged[r.Job.Name] = r.Hedged
	}
	for _, j := range submitted {
		if n := ends[j.Name]; n != 1 {
			o.failf("%s: job %s ended %d times", label, j.Name, n)
		}
		delete(ends, j.Name)
		svc := stores[j.Provider]
		commits := 0
		for _, s := range stores {
			commits += s.Store.Commits(j.Name)
		}
		if commits > o.maxCommits {
			o.maxCommits = commits
		}
		if commits > 1 {
			if hedged[j.Name] && commits == 2 {
				o.hedgeDupCommits++
			} else {
				o.failf("%s: %s was committed %d times", label, j.Name, commits)
			}
		}
		if !ok[j.Name] {
			continue
		}
		ob, found := svc.Store.Get(j.Name)
		switch {
		case !found:
			o.failf("%s: %s missing from %s", label, j.Name, j.Provider)
		case ob.Size != j.Size || ob.MD5 != j.MD5:
			o.failf("%s: %s on %s is %s bytes md5 %s, submitted %s md5 %s",
				label, j.Name, j.Provider, fmtF(ob.Size), ob.MD5, fmtF(j.Size), j.MD5)
		}
	}
	for name := range ends {
		o.failf("%s: result for unsubmitted job %s", label, name)
	}
	for _, s := range stores {
		o.dupSuppressed += s.Store.DuplicatesSuppressed()
	}
}
