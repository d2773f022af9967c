package sched

import (
	"strconv"

	"detournet/internal/core"
	"detournet/internal/telemetry"
)

// decisionKind names one kind of control-plane decision. The scheduler
// records every decision it takes with one note call, and the decisions
// table says what that call updates: a Stats counter, a registry
// counter family, and a flight-recorder event kind. Adding a decision
// means one row there plus one note call at the site.
type decisionKind uint8

const (
	// Admission (Submit).
	kindSubmitted decisionKind = iota
	kindRateLimited
	kindQueueFull
	kindTenantQuota
	kindRefused // the queue closed under a Submit
	kindStart   // a worker dequeued the job

	// Route election.
	kindRouteEvent
	kindCacheHit
	kindCacheMiss
	kindStaleServe
	kindBrownoutDirect
	kindBreakerSkip
	kindCanary
	kindElect

	// Striping.
	kindStriped
	kindStripeHedged // implied by kindStriped: its tail-hedged chunks
	kindStripeResent // implied by kindStriped: its re-dispatched chunks
	kindStripeDegraded

	// Attempts.
	kindAttempt
	kindHedge
	kindHedgeWin // implied by a kindHedge the hedge won
	kindReroute
	kindPark // implied by a kindReroute that parked
	kindFail
	kindIntegrityRetry // implied by a kindFail on a digest mismatch
	kindStall
	kindStallReroute
	kindQuotaFail
	kindQuotaReclaim
	kindSpill
	kindQuotaPark
	kindFailover
	kindFallback // also implied by a kindFailover that left a dead detour
	kindBudgetPark
	kindRetry

	// Terminal outcomes (finish); everything from kindDone on.
	kindLate        // implied by a kindDone past its deadline
	kindChunkRepair // implied by every terminal kind: the job's repairs
	kindDone
	kindFailed
	kindExpired
	kindShed

	numKinds
)

func (k decisionKind) terminal() bool { return k >= kindDone }

// decisionRow is one kind's entry in the decisions table.
type decisionRow struct {
	// stat is the Stats counter the kind adds to (nil: none).
	stat func(*Stats) *int64
	// metric and help name the registry counter family the kind adds to
	// ("": not exported); reason is the family's label value when the
	// family is split by reason.
	metric, help, reason string
	// trace is the flight-recorder event kind ("": not traced).
	trace string
}

const rejectsHelp = "Submissions rejected at the door."

var decisions = [numKinds]decisionRow{
	kindSubmitted:      {stat: func(st *Stats) *int64 { return &st.Submitted }, metric: "sched_jobs_submitted_total", help: "Jobs admitted to the queue."},
	kindRateLimited:    {stat: func(st *Stats) *int64 { return &st.RateLimited }, metric: "sched_rejects_total", help: rejectsHelp, reason: "rate-limited"},
	kindQueueFull:      {stat: func(st *Stats) *int64 { return &st.QueueFullRejects }, metric: "sched_rejects_total", help: rejectsHelp, reason: "queue-full"},
	kindTenantQuota:    {stat: func(st *Stats) *int64 { return &st.TenantQuotaRejects }, metric: "sched_rejects_total", help: rejectsHelp, reason: "tenant-quota"},
	kindRouteEvent:     {stat: func(st *Stats) *int64 { return &st.RouteEvents }},
	kindCacheHit:       {stat: func(st *Stats) *int64 { return &st.CacheHits }},
	kindCacheMiss:      {stat: func(st *Stats) *int64 { return &st.CacheMisses }},
	kindStaleServe:     {stat: func(st *Stats) *int64 { return &st.StaleServes }},
	kindBrownoutDirect: {stat: func(st *Stats) *int64 { return &st.BrownoutDirect }},
	kindBreakerSkip:    {stat: func(st *Stats) *int64 { return &st.BreakerSkips }},
	kindCanary:         {stat: func(st *Stats) *int64 { return &st.Canaries }, metric: "sched_canaries_total", help: "Canary probes of probation routes.", trace: "job.canary"},
	kindElect:          {trace: "job.elect"},
	kindStriped:        {stat: func(st *Stats) *int64 { return &st.MultipathJobs }},
	kindStripeHedged:   {stat: func(st *Stats) *int64 { return &st.MultipathHedged }},
	kindStripeResent:   {stat: func(st *Stats) *int64 { return &st.MultipathResent }},
	kindStripeDegraded: {stat: func(st *Stats) *int64 { return &st.MultipathDegraded }, trace: "job.mp-degrade"},
	kindAttempt:        {trace: "job.attempt"},
	kindHedge:          {stat: func(st *Stats) *int64 { return &st.Hedges }, metric: "sched_hedges_total", help: "Hedged transfers launched.", trace: "job.hedge"},
	kindHedgeWin:       {stat: func(st *Stats) *int64 { return &st.HedgeWins }, metric: "sched_hedge_wins_total", help: "Hedges that beat the primary."},
	kindReroute:        {stat: func(st *Stats) *int64 { return &st.Reroutes }, metric: "sched_reroutes_total", help: "Mid-transfer make-before-break reroutes.", trace: "job.reroute"},
	kindPark:           {stat: func(st *Stats) *int64 { return &st.Parks }, metric: "sched_parks_total", help: "Attempts that parked waiting for any route."},
	kindFail:           {trace: "job.fail"},
	kindIntegrityRetry: {stat: func(st *Stats) *int64 { return &st.IntegrityRetries }},
	kindStall:          {stat: func(st *Stats) *int64 { return &st.Stalls }, metric: "sched_stalls_total", help: "Watchdog-aborted stalled transfers."},
	kindStallReroute:   {stat: func(st *Stats) *int64 { return &st.StallReroutes }, metric: "sched_stall_reroutes_total", help: "Free failovers after a stall.", trace: "job.stall-failover"},
	kindQuotaFail:      {stat: func(st *Stats) *int64 { return &st.QuotaFailures }, metric: "sched_quota_fails_total", help: "Provider quota-full failures."},
	kindQuotaReclaim:   {stat: func(st *Stats) *int64 { return &st.QuotaReclaims }, metric: "sched_quota_reclaims_total", help: "Successful quota reclaims.", trace: "job.quota-reclaim"},
	kindSpill:          {stat: func(st *Stats) *int64 { return &st.ProviderSpills }, metric: "sched_provider_spills_total", help: "Jobs spilled to an alternate provider.", trace: "job.spill"},
	kindQuotaPark:      {stat: func(st *Stats) *int64 { return &st.QuotaParks }, metric: "sched_quota_parks_total", help: "Jobs parked on exhausted quota.", trace: "job.park"},
	kindFailover:       {stat: func(st *Stats) *int64 { return &st.Failovers }, metric: "sched_failovers_total", help: "Route-down failovers to an alternate route.", trace: "job.failover"},
	kindFallback:       {stat: func(st *Stats) *int64 { return &st.Fallbacks }, metric: "sched_fallbacks_total", help: "Detour-to-direct fallbacks.", trace: "job.fallback"},
	kindBudgetPark:     {stat: func(st *Stats) *int64 { return &st.BudgetParks }, metric: "sched_budget_parks_total", help: "Jobs parked on an exhausted retry budget.", trace: "job.park"},
	kindRetry:          {stat: func(st *Stats) *int64 { return &st.Retries }, metric: "sched_retries_total", help: "Attempt retries (backoff and free reroutes).", trace: "job.backoff"},
	kindLate:           {stat: func(st *Stats) *int64 { return &st.Late }, metric: "sched_jobs_late_total", help: "Jobs that finished past their deadline."},
	kindChunkRepair:    {stat: func(st *Stats) *int64 { return &st.ChunkRepairs }},
	kindDone:           {stat: func(st *Stats) *int64 { return &st.Done }, metric: "sched_jobs_done_total", help: "Jobs finished successfully.", trace: "job.done"},
	kindFailed:         {stat: func(st *Stats) *int64 { return &st.Failed }, metric: "sched_jobs_failed_total", help: "Jobs terminally failed.", trace: "job.failed"},
	kindExpired:        {stat: func(st *Stats) *int64 { return &st.Expired }, metric: "sched_jobs_expired_total", help: "Jobs expired past their deadline.", trace: "job.failed"},
	kindShed:           {stat: func(st *Stats) *int64 { return &st.Shed }, metric: "sched_jobs_shed_total", help: "Jobs shed by CoDel at dequeue.", trace: "job.failed"},
}

// decision is one control-plane decision: its kind plus what the kind
// carries beyond the job's running Result, which already holds the
// job's current route, attempt count and cache verdict.
type decision struct {
	kind decisionKind
	// count is a reroute's route switches.
	count int
	// seconds is a reroute's parked time, a retry's backoff, a park's
	// retry-after hint, or a dequeued job's queue delay.
	seconds float64
	// bytes is the quota a reclaim freed.
	bytes float64
	// provider is a spill's target.
	provider string
	// flag reports a hedge that won, a retry that backed off, or a
	// failure on a digest mismatch.
	flag bool
	// err is a failed attempt's cause.
	err error
}

// note records one decision. Under one s.mu section it adds to the
// kind's counter and registry counter (and to those of any kind the
// decision implies) and updates the job's running Result; then, outside
// the lock and only while the job's trace is live, it writes the
// flight-recorder event. run is nil for decisions that belong to no
// single job's record (admission, routing events, cache lookups).
func (s *Scheduler) note(run *Result, d decision) {
	s.mu.Lock()
	s.fold(run, d)
	s.mu.Unlock()
	if run == nil {
		return
	}
	if run.tr != nil && decisions[d.kind].trace != "" {
		traceDecision(run, d)
	}
	if d.kind.terminal() {
		s.rec.Finish(run.tr, run.Job.Name, d.kind != kindDone)
	}
}

// fold applies d to the scheduler's tallies and the job's record;
// callers hold s.mu.
func (s *Scheduler) fold(run *Result, d decision) {
	n := int64(1)
	switch d.kind {
	case kindSubmitted:
		s.noteDepthLocked()
	case kindQueueFull, kindTenantQuota, kindRefused:
		s.pending--
		s.noteDepthLocked()
	case kindStart:
		s.running++
		s.delays.note(d.seconds)
		s.noteDepthLocked()
	case kindStriped:
		rep := run.Multipath
		s.add(kindStripeHedged, int64(rep.HedgedChunks))
		s.add(kindStripeResent, int64(rep.ResentChunks))
		s.stripeDupBytes += rep.DuplicateBytes
	case kindHedge:
		run.Hedged = true
		if d.flag {
			run.HedgeWon = true
			s.add(kindHedgeWin, 1)
		}
	case kindReroute:
		n = int64(d.count)
		run.Reroutes += d.count
		run.Parked += d.seconds
		if d.seconds > 0 {
			s.add(kindPark, 1)
			s.parkSeconds += d.seconds
		}
	case kindFail:
		if d.flag {
			s.add(kindIntegrityRetry, 1)
		}
	case kindFailover:
		// Only a dead detour fails over to direct: that is a fallback too.
		if run.Route.Kind != core.Detour {
			s.add(kindFallback, 1)
		}
	case kindDone, kindFailed, kindExpired, kindShed:
		s.settleLocked(run, d.kind)
	}
	s.add(d.kind, n)
}

// settleLocked folds a job's terminal result; callers hold s.mu.
func (s *Scheduler) settleLocked(res *Result, k decisionKind) {
	s.pending--
	if s.running > 0 {
		s.running--
	}
	s.bytesResumed += res.Resumed
	s.bytesRewritten += res.Rewritten
	s.add(kindChunkRepair, int64(res.ChunkRepairs))
	m := s.met
	if m != nil {
		m.queueDelay.Observe(res.QueueDelay)
		m.attempts.Observe(float64(res.Attempts))
	}
	if k == kindDone {
		if res.Late {
			s.add(kindLate, 1)
		}
		rs := s.perRoute[res.Route.String()]
		if rs == nil {
			rs = &RouteStats{}
			s.perRoute[res.Route.String()] = rs
		}
		rs.Jobs++
		rs.Bytes += res.Job.Size
		rs.Seconds += res.Seconds
		s.lat.note(res.Route.String(), res.Seconds, res.Job.Size)
		if m != nil {
			m.transferSec.Observe(res.Seconds)
			bm, jm := m.routeMetrics(res.Route)
			bm.Add(res.Job.Size)
			jm.Inc()
		}
	}
	s.noteDepthLocked()
	s.cond.Broadcast()
}

// add adds n to kind k's counter and to its registry counter; callers
// hold s.mu.
func (s *Scheduler) add(k decisionKind, n int64) {
	s.count[k] += n
	if m := s.met; m != nil {
		c := m.counters[k]
		if c == nil {
			row := &decisions[k]
			if row.reason == "" {
				return
			}
			// A reason child appears in the dump only once it is used.
			c = m.reg.Counter(row.metric, row.help, "reason").With(row.reason)
			m.counters[k] = c
		}
		c.Add(float64(n))
	}
}

// traceDecision writes d's flight-recorder event into the job's live
// trace.
func traceDecision(run *Result, d decision) {
	tr, kind := run.tr, decisions[d.kind].trace
	switch d.kind {
	case kindCanary, kindStallReroute, kindFailover:
		tr.Note(kind, "route", run.Route.String())
	case kindElect:
		tr.Note(kind, "route", run.Route.String(), "cache", strconv.FormatBool(run.CacheHit))
	case kindAttempt:
		tr.Note(kind, "n", strconv.Itoa(run.Attempts), "route", run.Route.String())
	case kindHedge:
		if d.flag {
			tr.Note(kind, "won", "true", "route", run.Route.String())
		} else {
			tr.Note(kind, "won", "false")
		}
	case kindReroute:
		tr.Note(kind, "n", strconv.Itoa(d.count), "parked_s", fnum(d.seconds), "route", run.Route.String())
	case kindFail:
		tr.Note(kind, "class", Classify(d.err).String(), "err", d.err.Error())
	case kindQuotaReclaim:
		tr.Note(kind, "provider", run.Job.Provider, "freed", fnum(d.bytes))
	case kindSpill:
		tr.Note(kind, "from", run.Job.Provider, "to", d.provider)
	case kindQuotaPark:
		tr.Note(kind, "kind", "quota", "provider", run.Job.Provider, "retry_after", fnum(d.seconds))
	case kindBudgetPark:
		tr.Note(kind, "kind", "budget", "provider", run.Job.Provider, "retry_after", fnum(d.seconds))
	case kindRetry:
		if d.flag {
			tr.Note(kind, "delay_s", fnum(d.seconds))
		}
	case kindDone:
		tr.Note(kind, "sec", fnum(run.Seconds), "route", run.Route.String())
	case kindFailed, kindExpired, kindShed:
		tr.Note(kind, "err", run.Err.Error(), "attempts", strconv.Itoa(run.Attempts), "route", run.Route.String())
	default:
		tr.Note(kind)
	}
}

func fnum(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// schedMetrics holds the registry handles New resolves for the
// scheduler: one counter per exported decision kind, the occupancy
// gauges, the histograms, and the per-route delivery families. A nil
// *schedMetrics means telemetry is off.
type schedMetrics struct {
	reg *telemetry.Registry
	// counters is indexed by decision kind; nil for kinds not exported
	// and for reason children not used yet.
	counters                          [numKinds]*telemetry.Metric
	queueDepth, running               *telemetry.Metric
	queueDelay, transferSec, attempts *telemetry.Metric
	routeBytes, routeJobs             *telemetry.Family // route
	// directBytes/directJobs are the pre-resolved "direct" children of
	// the route families — the common case skips the label lookup.
	directBytes, directJobs *telemetry.Metric
}

func newSchedMetrics(reg *telemetry.Registry) *schedMetrics {
	if reg == nil {
		return nil
	}
	m := &schedMetrics{
		reg:        reg,
		queueDepth: reg.Gauge("sched_queue_depth", "Jobs waiting in the queue.").With(),
		running:    reg.Gauge("sched_running", "Jobs currently executing.").With(),

		queueDelay: reg.Histogram("sched_queue_delay_seconds", "Time from admit to dequeue.",
			telemetry.HistOpts{Start: 0.001, Factor: 4, Buckets: 12}).With(),
		transferSec: reg.Histogram("sched_transfer_seconds", "Successful transfer durations.",
			telemetry.HistOpts{Start: 0.25, Factor: 2, Buckets: 16}).With(),
		attempts: reg.Histogram("sched_job_attempts", "Attempts per finished job.",
			telemetry.HistOpts{Start: 1, Factor: 2, Buckets: 5}).With(),

		routeBytes: reg.Counter("sched_route_bytes_total", "Bytes delivered, by final route.", "route"),
		routeJobs:  reg.Counter("sched_route_jobs_total", "Jobs delivered, by final route.", "route"),
	}
	for k := range decisions {
		switch row := &decisions[k]; {
		case row.metric == "":
		case row.reason != "":
			reg.Counter(row.metric, row.help, "reason")
		default:
			m.counters[k] = reg.Counter(row.metric, row.help).With()
		}
	}
	m.directBytes = m.routeBytes.With("direct")
	m.directJobs = m.routeJobs.With("direct")
	return m
}

// routeMetrics resolves the per-route delivery counters, using the
// pre-resolved handles for the direct route.
func (m *schedMetrics) routeMetrics(r core.Route) (bytes, jobs *telemetry.Metric) {
	if r.Kind != core.Detour {
		return m.directBytes, m.directJobs
	}
	lbl := routeLabel(r)
	return m.routeBytes.With(lbl), m.routeJobs.With(lbl)
}

// noteDepthLocked refreshes the occupancy gauges from the counters
// already guarded by s.mu; callers must hold s.mu.
func (s *Scheduler) noteDepthLocked() {
	if s.met == nil {
		return
	}
	q := s.pending - s.running
	if q < 0 {
		q = 0
	}
	s.met.queueDepth.Set(float64(q))
	s.met.running.Set(float64(s.running))
}

// Depths is a lock-cheap occupancy snapshot (queued, running) for
// samplers — unlike Stats it copies no maps.
func (s *Scheduler) Depths() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.pending - s.running
	if q < 0 {
		q = 0
	}
	return int(q), int(s.running)
}

// routeLabel collapses a route to its metric label: "direct" or
// "detour:<dtn>", keeping family cardinality bounded by the DTN fleet.
func routeLabel(r core.Route) string {
	if r.Kind == core.Detour {
		return "detour:" + r.Via
	}
	return "direct"
}
