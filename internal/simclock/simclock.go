// Package simclock provides a deterministic discrete-event simulation
// engine: a virtual clock and an event queue ordered by (time, sequence).
//
// Every other simulation package in this repository schedules work on an
// *Engine rather than on the wall clock, so whole-WAN experiments run in
// microseconds of real time and are bit-reproducible.
package simclock

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation. Fluid-flow rate math is naturally expressed in floating
// point; deterministic event ordering is guaranteed by a monotonically
// increasing sequence number used as a tie-breaker, never by float
// identity tricks.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Infinity is a sentinel time that sorts after every reachable event.
var Infinity = Time(math.Inf(1))

// Event is scheduled work. Events are compared by time first and by
// insertion sequence second, so two events at the same instant always run
// in the order they were scheduled.
type Event struct {
	at     Time
	seq    uint64
	index  int // heap index; -1 once removed
	fn     func()
	fired  bool
	cancel bool
}

// At reports the virtual time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancel }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	running bool
	// MaxEvents bounds a single Run to guard against scheduling loops in
	// buggy models. Zero means no bound.
	MaxEvents uint64
	processed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) or at NaN panics: either is always a model bug. Clamping
// would hide a past time, and a NaN event would stall the queue for
// good, since NaN compares false against every deadline.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	e.checkTime("schedule", at)
	if fn == nil {
		panic("simclock: nil event func")
	}
	ev := &Event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// checkTime panics when at is before now or NaN.
func (e *Engine) checkTime(op string, at Time) {
	if math.IsNaN(float64(at)) {
		panic(fmt.Sprintf("simclock: %s at NaN", op))
	}
	if at < e.now {
		panic(fmt.Sprintf("simclock: %s at %v before now %v", op, at, e.now))
	}
}

// After runs fn d seconds from now. Negative or NaN d panics via
// Schedule.
func (e *Engine) After(d Duration, fn func()) *Event {
	return e.Schedule(e.now+Time(d), fn)
}

// Cancel removes a pending event. Cancelling an event that already fired
// or was already cancelled is a no-op and reports false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.fired || ev.cancel || ev.index < 0 {
		return false
	}
	ev.cancel = true
	heap.Remove(&e.queue, ev.index)
	return true
}

// Reschedule moves a pending event to a new absolute time, preserving
// nothing but its callback: it takes a fresh sequence number exactly as
// Cancel plus Schedule would, so it reorders nothing, but it allocates
// neither an event nor a closure. It reports whether the event was
// still pending. A fired or cancelled event is left alone. A past or
// NaN time panics, as in Schedule.
func (e *Engine) Reschedule(ev *Event, at Time) bool {
	if ev == nil || ev.fired || ev.cancel || ev.index < 0 {
		return false
	}
	e.checkTime("reschedule", at)
	ev.at = at
	ev.seq = e.seq
	e.seq++
	heap.Fix(&e.queue, ev.index)
	return true
}

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// PeekTime returns the time of the next event, or Infinity when the queue
// is empty.
func (e *Engine) PeekTime() Time {
	if len(e.queue) == 0 {
		return Infinity
	}
	return e.queue[0].at
}

// Step executes the single next event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.at
	ev.fired = true
	e.processed++
	ev.fn()
	return true
}

// Run executes events until the queue is empty. It returns the final
// virtual time. It panics if MaxEvents is exceeded.
func (e *Engine) Run() Time {
	return e.RunUntil(Infinity)
}

// RunUntil executes events with time <= deadline and then advances the
// clock to min(deadline, next event time). Events scheduled exactly at
// the deadline do run.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("simclock: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	start := e.processed
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		if e.MaxEvents > 0 && e.processed-start >= e.MaxEvents {
			panic(fmt.Sprintf("simclock: exceeded MaxEvents=%d (event loop?)", e.MaxEvents))
		}
		e.Step()
	}
	if deadline != Infinity && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

// Advance moves the clock forward by d, running any events that fall in
// the window. It is RunUntil(Now()+d).
func (e *Engine) Advance(d Duration) Time {
	return e.RunUntil(e.now + Time(d))
}
