package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"detournet/internal/core"
	"detournet/internal/health"
	"detournet/internal/journal"
	"detournet/internal/multipath"
	"detournet/internal/sched"
)

// Span names. Each marks one call from the benchmark (or from the
// scheduler, through a wrapper) into a layer's public functions.
const (
	spanSubmit    = "sched.Submit"
	spanDrain     = "sched.Drain"
	spanPlan      = "plan.Plan"
	spanExec      = "exec.Execute"
	spanPrecheck  = "exec.Precheck"
	spanSleep     = "exec.Sleep"
	spanDevAppend = "journal.Append"
	spanDevSwap   = "journal.Swap"
	spanReplay    = "journal.Replay"
	spanGrid      = "grid.RunGrid"
)

// span is one recorded call: wall-clock offsets from the tracer's
// origin, the enclosing open span (-1 for a root) and the job it
// served, when one did.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    string `json:"job,omitempty"`
}

// tracer keeps spans in memory. The simulation runs one workload at a
// time, so at most one call is in flight per nesting level; the open
// stack gives each new span its parent. A nil tracer records nothing,
// which is how untraced runs share the traced code paths.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name, job string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: job})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// spanStats are the per-name aggregates the per-layer metrics read:
// every duration, and the summed self time (duration minus the time
// direct children cover; children never overlap, one call at a time).
type spanStats struct {
	durs []float64 // seconds
	self float64   // seconds
}

func (t *tracer) stats() map[string]*spanStats {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e9
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e9
		st.durs = append(st.durs, d)
		if self := d - child[i]; self > 0 {
			st.self += self
		}
	}
	return out
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("encode span: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedExec stands between the scheduler and the simulation executor
// (which is also the planner), recording a span around every call. It
// forwards every optional interface the scheduler type-asserts, so a
// traced scheduler takes exactly the code paths an untraced one does.
type tracedExec struct {
	e  *sched.SimExecutor
	tr *tracer
}

var (
	_ sched.ResumableExecutor = (*tracedExec)(nil)
	_ sched.PrecheckExecutor  = (*tracedExec)(nil)
	_ sched.HedgedExecutor    = (*tracedExec)(nil)
	_ sched.ReroutingExecutor = (*tracedExec)(nil)
	_ sched.MultipathExecutor = (*tracedExec)(nil)
	_ sched.QuotaReclaimer    = (*tracedExec)(nil)
	_ sched.HealthAware       = (*tracedExec)(nil)
	_ sched.PathAwarePlanner  = (*tracedExec)(nil)
)

func (x *tracedExec) Execute(j sched.Job, r core.Route) (float64, error) {
	id := x.tr.begin(spanExec, j.Name)
	defer x.tr.end(id)
	return x.e.Execute(j, r)
}

func (x *tracedExec) ExecuteResumable(j sched.Job, r core.Route, ck *core.Checkpoint) (float64, error) {
	id := x.tr.begin(spanExec, j.Name)
	defer x.tr.end(id)
	return x.e.ExecuteResumable(j, r, ck)
}

func (x *tracedExec) ExecuteHedged(j sched.Job, primary core.Route, budget float64, ck *core.Checkpoint) (float64, core.Route, bool, bool, error) {
	id := x.tr.begin(spanExec, j.Name)
	defer x.tr.end(id)
	return x.e.ExecuteHedged(j, primary, budget, ck)
}

func (x *tracedExec) ExecuteRerouting(j sched.Job, r core.Route, ck *core.Checkpoint, parkBudget float64) (float64, core.Route, int, float64, error) {
	id := x.tr.begin(spanExec, j.Name)
	defer x.tr.end(id)
	return x.e.ExecuteRerouting(j, r, ck, parkBudget)
}

func (x *tracedExec) ExecuteMultipath(j sched.Job, routes []core.Route, chunk float64) (multipath.Report, error) {
	id := x.tr.begin(spanExec, j.Name)
	defer x.tr.end(id)
	return x.e.ExecuteMultipath(j, routes, chunk)
}

func (x *tracedExec) Precheck(j sched.Job) bool {
	id := x.tr.begin(spanPrecheck, j.Name)
	defer x.tr.end(id)
	return x.e.Precheck(j)
}

func (x *tracedExec) Plan(client, provider string, size float64) (core.Route, []core.Route, error) {
	id := x.tr.begin(spanPlan, client+">"+provider)
	defer x.tr.end(id)
	return x.e.Plan(client, provider, size)
}

func (x *tracedExec) RoutePaths(client, provider string, routes []core.Route) map[core.Route][]sched.PathHop {
	return x.e.RoutePaths(client, provider, routes)
}

func (x *tracedExec) ReclaimQuota(provider string) float64 { return x.e.ReclaimQuota(provider) }

func (x *tracedExec) SetHealth(h *health.Tracker) { x.e.SetHealth(h) }

// executorFor returns what the scheduler is configured with: the bare
// executor when untraced (no wrapper on the measured path), the
// wrapper when traced.
func executorFor(e *sched.SimExecutor, tr *tracer) interface {
	sched.Executor
	sched.Planner
} {
	if tr == nil {
		return e
	}
	return &tracedExec{e: e, tr: tr}
}

// tracedDevice wraps a journal device, timing appends and compaction
// swaps and counting the bytes they persist. It forwards the fault
// hooks the control journal type-asserts (torn appends, bit rot and
// capacity clamps).
type tracedDevice struct {
	dev   *journal.MemDevice
	tr    *tracer
	bytes int64
}

var _ journal.Device = (*tracedDevice)(nil)

func (d *tracedDevice) Bytes() []byte { return d.dev.Bytes() }
func (d *tracedDevice) Size() int     { return d.dev.Size() }

func (d *tracedDevice) Append(b []byte) (int, error) {
	id := d.tr.begin(spanDevAppend, "")
	defer d.tr.end(id)
	n, err := d.dev.Append(b)
	d.bytes += int64(n)
	return n, err
}

func (d *tracedDevice) Swap(b []byte) error {
	id := d.tr.begin(spanDevSwap, "")
	defer d.tr.end(id)
	err := d.dev.Swap(b)
	if err == nil {
		d.bytes += int64(len(b))
	}
	return err
}

func (d *tracedDevice) TornNextAppend(frac float64) { d.dev.TornNextAppend(frac) }
func (d *tracedDevice) FlipByte(off int)            { d.dev.FlipByte(off) }
func (d *tracedDevice) ClampCapacity()              { d.dev.ClampCapacity() }
func (d *tracedDevice) UnclampCapacity()            { d.dev.UnclampCapacity() }

// sleeperFor returns the scheduler's backoff sleep: the executor's
// virtual sleep, which drives the simulation, timed as an exec.Sleep
// span when traced so it is not charged to the scheduler's self time.
func sleeperFor(e *sched.SimExecutor, tr *tracer) func(float64) {
	if tr == nil {
		return e.SleepVirtual
	}
	return func(sec float64) {
		id := tr.begin(spanSleep, "")
		defer tr.end(id)
		e.SleepVirtual(sec)
	}
}

// deviceFor mirrors executorFor for the journal device.
func deviceFor(tr *tracer) (journal.Device, *tracedDevice) {
	m := journal.NewMemDevice()
	if tr == nil {
		return m, nil
	}
	d := &tracedDevice{dev: m, tr: tr}
	return d, d
}
