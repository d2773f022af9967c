// Telemetry replay: the observability harness behind `make
// telemetry` and `detourd -replay telemetry`. One Telemetry call
// builds a world with dynamic routing, arms the reconvergence storm,
// and drives a flash-crowd fleet through a fully instrumented
// scheduler: a metrics registry collects counters and histograms, a
// simclock-driven sampler records per-window time series (link
// utilization, queue depth, DTN staging fill, provider quota headroom,
// journal size, active flows) into ring buffers, and a flight recorder
// keeps the complete decision trace of every failed transfer.
//
// Determinism is inherited, not asserted: one worker, arrivals fed at
// virtual-time boundaries (see feeder), the sampler ticking on the
// virtual clock as a scenario pauser, and report renderers that
// iterate only sorted data. Same seed, same binary ⇒ byte-identical
// reports, Prometheus dumps, and JSON exports — which `make check`
// verifies.

package replay

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"detournet/internal/faults"
	"detournet/internal/journal"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
	"detournet/internal/workload"
)

// TelemetryOutcome is one replay's complete, deterministic result set:
// plain results plus every observability surface, captured as value
// snapshots so callers can render or diff them without touching live
// state. An uninstrumented run leaves the observability fields empty.
type TelemetryOutcome struct {
	Replay
	// Snapshot is the metrics registry at end of run.
	Snapshot telemetry.Snapshot
	// Series are the sampler's ring buffers, sorted by name.
	Series []telemetry.SeriesSnapshot
	// Traces are the flight recorder's retained terminal traces (failed
	// in full, successes truncated to counts), failures first.
	Traces []telemetry.JobTrace
	// RecorderFinished / RecorderFailed count jobs through the recorder.
	RecorderFinished, RecorderFailed int
	// Samples is how many sampleEvery ticks the sampler took.
	Samples int
}

// The telemetry fleet: 40 transfers of 24 MB each, sampled every 15
// virtual seconds.
const (
	telemetryJobs    = 40
	telemetryJobSize = 24e6
	sampleEvery      = 15.0
	// dumpEvery is the periodic dump's grid: a compact telemetry line
	// every so many virtual seconds.
	dumpEvery = 120
)

// Telemetry replays the instrumented flash crowd once. See the file
// comment. Without instrument the identical storm runs with the whole
// telemetry plane detached (no registry, recorder, or sampler) — the
// overhead guard's baseline. A non-nil dump receives the periodic
// telemetry lines.
func Telemetry(seed int64, instrument bool, dump io.Writer) TelemetryOutcome {
	r := newRig(seed, faults.ChurnSchedule(), scenario.WithDynamicRouting())
	cj, _, err := sched.NewControlJournal(journal.NewMemDevice())
	if err != nil {
		panic(err)
	}
	// A finite provider quota (ample — double the fleet) makes the
	// headroom series meaningful without ever rejecting a byte.
	store := r.w.Services[scenario.GoogleDrive].Store
	store.Quota = 2 * telemetryJobs * telemetryJobSize

	// The observability plane: registry for counters/histograms, sampler
	// on the virtual clock, flight recorder stamped with virtual time.
	// Every consumer below is nil-safe, so the uninstrumented baseline
	// runs the identical code with the plane detached.
	var (
		reg  *telemetry.Registry
		rec  *telemetry.FlightRecorder
		samp *telemetry.Sampler
	)
	if instrument {
		reg = telemetry.NewRegistry()
		samp = telemetry.NewSampler(r.w.Eng, sampleEvery, 1024)
		// The sampler pauses like cross-traffic: armed only while a
		// workload drives the engine, so its self-rescheduling tick never
		// wedges the event-queue drain between transfers.
		r.w.AddPauser(samp)
	}
	// The flash crowd arrives on the virtual clock (see feeder).
	out := TelemetryOutcome{Replay: r.run(fleet{trace: telemetryTrace(seed)}, func(r *rig) {
		if instrument {
			rec = telemetry.NewFlightRecorder(r.exec.VirtualNow, 64, 6)
		}
		// A deliberately thin survival stack: rerouting with a short park
		// budget and only one retry, so the storm's blackhole windows
		// produce real failures — the traces the flight recorder exists
		// to keep.
		r.cfg.MaxAttempts = 2
		r.cfg.Reroute = true
		r.cfg.ParkBudget = 20
		r.cfg.Journal = cj
		r.cfg.Telemetry = reg
		r.cfg.Recorder = rec
		r.attach = func(s *sched.Scheduler) {
			r.subscribeRoutes(s)
			trackSeries(r.w, s, samp, cj, dump)
		}
	})}
	out.Snapshot = reg.Snapshot()
	out.Series = samp.Snapshot()
	out.Traces = rec.Retained()
	out.Samples = samp.Samples()
	out.RecorderFinished, out.RecorderFailed = rec.Counts()
	return out
}

// trackSeries registers the sampler's sources, one probe per series,
// and the periodic dump to dump (when non-nil).
func trackSeries(w *scenario.World, s *sched.Scheduler, samp *telemetry.Sampler, cj *sched.ControlJournal, dump io.Writer) {
	// Link picks: the paper's rate-limited PacificWave hand-off, the
	// fast private peering, and the CANARIE detour's first hop.
	type linkProbe struct {
		name  string
		probe func() float64
	}
	var linkProbes []linkProbe
	for _, lk := range [][2]string{
		{"vncv1", "pacificwave"},
		{"vncv1", "google-peer"},
		{"vncv1", "edmn1"},
	} {
		e, ok := w.Graph.Edge(lk[0], lk[1])
		if !ok {
			continue
		}
		lp := linkProbe{name: "link." + lk[0] + ">" + lk[1] + ".util", probe: e.Link.Utilization}
		linkProbes = append(linkProbes, lp)
		samp.Track(lp.name, lp.probe)
	}
	fl := w.Graph.Fluid()
	samp.Track("net.flows", func() float64 { return float64(fl.ActiveFlows()) })
	samp.Track("sched.queued", func() float64 { q, _ := s.Depths(); return float64(q) })
	samp.Track("sched.running", func() float64 { _, r := s.Depths(); return float64(r) })
	for _, dtn := range scenario.DTNs {
		d := w.Daemons[dtn]
		samp.Track("dtn."+dtn+".staged_mb", func() float64 { return d.Stats().Used / 1e6 })
	}
	svc := w.Services[scenario.GoogleDrive]
	samp.Track("provider.gdrive.stored_mb", func() float64 { return svc.Store.Used() / 1e6 })
	samp.Track("provider.gdrive.headroom_mb", func() float64 { return svc.Store.QuotaHeadroom() / 1e6 })
	samp.Track("provider.gdrive.pending_mb", func() float64 { return svc.PendingBytes() / 1e6 })
	samp.Track("journal.kb", func() float64 { return float64(cj.DeviceSize()) / 1024 })

	if dump == nil {
		return
	}
	next := float64(dumpEvery)
	samp.OnSample(func(t float64) {
		if t+1e-9 < next {
			return
		}
		next = (math.Floor(t/dumpEvery) + 1) * dumpEvery
		q, run := s.Depths()
		fmt.Fprintf(dump, "[t=%6.0f] queued=%2d running=%d flows=%2.0f", t, q, run,
			float64(fl.ActiveFlows()))
		for _, lp := range linkProbes {
			fmt.Fprintf(dump, " %s=%.2f", lp.name[len("link."):], lp.probe())
		}
		fmt.Fprintf(dump, " journal=%.1fKB\n", float64(cj.DeviceSize())/1024)
	})
}

// telemetryTrace generates the fleet: a calm lead-in, a burst that
// lands inside the storm's churn windows, and a calm tail.
func telemetryTrace(seed int64) []workload.FleetJob {
	crowd, err := workload.NewFlashCrowd(
		workload.Phase{RatePerSec: 0.05, Seconds: 40},
		workload.Phase{RatePerSec: 0.5, Seconds: 120},
		workload.Phase{RatePerSec: 0.05},
	)
	if err != nil {
		panic(err)
	}
	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:      telemetryJobs,
		Clients:   []string{scenario.UBC, scenario.UAlberta},
		Providers: []string{scenario.GoogleDrive},
		Tenants:   []string{"telemetry"},
		Sizes:     workload.Fixed{Bytes: telemetryJobSize},
		Arrivals:  crowd,
		Prefix:    "tlm", PriorityLevels: 1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return trace
}

// sparkWidth is the dashboard sparkline width in columns.
const sparkWidth = 48

// writeSeries renders one time-series line: name, min/max/last, spark.
func writeSeries(out io.Writer, ss telemetry.SeriesSnapshot) {
	fmt.Fprintf(out, "  %-32s %9.2f .. %-9.2f last %9.2f  |%s|\n",
		ss.Name, ss.Min(), ss.Max(), ss.Last(), telemetry.Spark(ss.Values, sparkWidth))
}

// writeTelemetryReport renders the deterministic full report: run
// stats, the sampled time series with sparklines, the failed jobs'
// flight-recorder traces decision by decision, and the Prometheus dump.
func writeTelemetryReport(out io.Writer, o TelemetryOutcome) {
	fmt.Fprintf(out, "Telemetry: %d transfers through a reconvergence storm (%d fault transitions, %.0f virtual s, goodput %.2f MB/s)\n",
		len(o.Results), len(o.Faults), o.VirtualSeconds, o.Goodput()/1e6)
	fmt.Fprintf(out, "stats: %s\n", o.Stats)

	fmt.Fprintf(out, "time series (every %g virtual s, %d samples):\n", sampleEvery, o.Samples)
	for _, ss := range o.Series {
		writeSeries(out, ss)
	}

	fmt.Fprintf(out, "flight recorder: %d jobs finished, %d failed traces retained in full\n",
		o.RecorderFinished, o.RecorderFailed)
	for _, tr := range o.Traces {
		if !tr.Failed {
			continue
		}
		fmt.Fprintf(out, "  %s — %d events (%d dropped):\n", tr.Job, tr.Seen, tr.Dropped)
		for _, ev := range tr.Events {
			fmt.Fprintf(out, "    %s\n", ev.String())
		}
	}

	fmt.Fprintln(out, "metrics (prometheus):")
	if err := o.Snapshot.WritePrometheus(out); err != nil {
		panic(err)
	}
}

// writeTelemetryDash renders the compact terminal dashboard section of
// `detourd -replay telemetry`: headline counters, every sampled series as a
// sparkline, and one line per retained failed trace.
func writeTelemetryDash(out io.Writer, o TelemetryOutcome) {
	st := o.Stats
	fmt.Fprintf(out, "== detour telemetry dashboard (%.0f virtual s, %d samples every %gs) ==\n",
		o.VirtualSeconds, o.Samples, sampleEvery)
	fmt.Fprintf(out, " jobs: %d done / %d failed / %d expired / %d shed | goodput %.2f MB/s\n",
		st.Done, st.Failed, st.Expired, st.Shed, o.Goodput()/1e6)
	fmt.Fprintf(out, " churn: %d reroutes, %d parks (%.0fs), %d retries, %d failovers, %d fallbacks\n",
		st.Reroutes, st.Parks, st.ParkSeconds, st.Retries, st.Failovers, st.Fallbacks)
	fmt.Fprintln(out, " series:")
	for _, ss := range o.Series {
		writeSeries(out, ss)
	}
	fmt.Fprintf(out, " flight recorder: %d finished, %d failed retained\n",
		o.RecorderFinished, o.RecorderFailed)
	for _, tr := range o.Traces {
		if !tr.Failed {
			continue
		}
		last := "-"
		if len(tr.Events) > 0 {
			last = tr.Events[len(tr.Events)-1].String()
		}
		fmt.Fprintf(out, "  failed %-14s %2d events, last: %s\n", tr.Job, tr.Seen, last)
	}
}

// runTelemetry prints the live dumps, the dashboard and the full
// report `detourd -replay telemetry` shows.
func runTelemetry(out io.Writer, seed int64) error {
	fmt.Fprintln(out, "== live telemetry ==")
	o := Telemetry(seed, true, out)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "== dashboard ==")
	writeTelemetryDash(out, o)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "== full report ==")
	writeTelemetryReport(out, o)
	return nil
}
