package simclock

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time = %v, want 3", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterAdvancesFromNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

// TestNaNTimePanics is the regression for a NaN event stalling the
// engine: NaN < now is false, so Schedule used to accept it, and once
// the NaN event reached the heap top RunUntil's "at <= deadline" test
// failed and Run returned with every later event still pending.
func TestNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s at NaN did not panic", name)
			}
		}()
		fn()
	}
	e := NewEngine()
	mustPanic("Schedule", func() { e.Schedule(nan, func() {}) })
	mustPanic("After", func() { e.After(math.NaN(), func() {}) })
	ev := e.Schedule(2, func() {})
	mustPanic("Reschedule", func() { e.Reschedule(ev, nan) })

	// The rejected calls left the queue usable: the t=1 and t=2 events
	// both run.
	ran := 0
	e.Schedule(1, func() { ran++ })
	e.Run()
	if ran != 1 || e.Now() != 2 || e.Pending() != 0 {
		t.Fatalf("after NaN rejects: ran=%d now=%v pending=%d, want 1, 2, 0", ran, e.Now(), e.Pending())
	}
}

func TestNilFuncPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil func did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel reported false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel reported true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
}

func TestCancelFired(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	e.Run()
	if e.Cancel(ev) {
		t.Fatal("Cancel of fired event reported true")
	}
}

func TestReschedule(t *testing.T) {
	e := NewEngine()
	var at Time
	ev := e.Schedule(10, func() { at = e.Now() })
	if !e.Reschedule(ev, 4) {
		t.Fatal("Reschedule reported false")
	}
	e.Run()
	if at != 4 {
		t.Fatalf("rescheduled event fired at %v, want 4", at)
	}
	if e.Reschedule(ev, 20) {
		t.Fatal("Reschedule of fired event reported true")
	}
}

func TestRescheduleKeepsOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	a := e.Schedule(1, func() { got = append(got, "a") })
	e.Schedule(2, func() { got = append(got, "b") })
	e.Reschedule(a, 2) // same time as b, but rescheduled later => runs after b
	e.Run()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("order = %v, want [b a]", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1,2", fired)
	}
	if e.Now() != 2 {
		t.Fatalf("Now = %v, want 2", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Now() != 4 {
		t.Fatalf("Now = %v, want 4", e.Now())
	}
}

func TestRunUntilAdvancesClockPastQueue(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestAdvance(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(5, func() { n++ })
	e.Advance(3)
	if n != 0 || e.Now() != 3 {
		t.Fatalf("after Advance(3): n=%d now=%v", n, e.Now())
	}
	e.Advance(3)
	if n != 1 || e.Now() != 6 {
		t.Fatalf("after Advance(6): n=%d now=%v", n, e.Now())
	}
}

func TestPeekTime(t *testing.T) {
	e := NewEngine()
	if e.PeekTime() != Infinity {
		t.Fatal("PeekTime on empty queue not Infinity")
	}
	e.Schedule(7, func() {})
	if e.PeekTime() != 7 {
		t.Fatalf("PeekTime = %v, want 7", e.PeekTime())
	}
}

func TestMaxEventsGuard(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	var loop func()
	loop = func() { e.After(0, loop) }
	e.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("event loop did not trip MaxEvents")
		}
	}()
	e.Run()
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(1, func() {
		e.After(1, func() { got = append(got, e.Now()) })
		e.After(2, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("nested scheduling produced %v, want [2 3]", got)
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

// Property: for any set of (time, id) pairs, execution order equals a
// stable sort by time.
func TestPropertyExecutionIsStableSortByTime(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		e := NewEngine()
		type item struct {
			at  Time
			seq int
		}
		var want []item
		var got []item
		for i, r := range raw {
			at := Time(r % 50)
			want = append(want, item{at, i})
			i := i
			e.Schedule(at, func() { got = append(got, item{at, i}) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset never fires those events and fires
// all others.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		e := NewEngine()
		n := 50
		fired := make([]bool, n)
		evs := make([]*Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = e.Schedule(Time(rng.Intn(20)), func() { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				e.Cancel(evs[i])
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			if cancelled[i] && fired[i] {
				t.Fatalf("trial %d: cancelled event %d fired", trial, i)
			}
			if !cancelled[i] && !fired[i] {
				t.Fatalf("trial %d: live event %d did not fire", trial, i)
			}
		}
	}
}

// Property: moving an event with Reschedule runs everything in the same
// order as cancelling it and scheduling a fresh one at the new time.
func TestPropertyRescheduleMatchesCancelSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		starts := make([]Time, 30)
		for i := range starts {
			starts[i] = Time(rng.Intn(5))
		}
		moves := make([][2]int, 40)
		for i := range moves {
			moves[i] = [2]int{rng.Intn(len(starts)), rng.Intn(10)}
		}
		run := func(reuse bool) []int {
			e := NewEngine()
			var got []int
			evs := make([]*Event, len(starts))
			for i, at := range starts {
				i := i
				evs[i] = e.Schedule(at, func() { got = append(got, i) })
			}
			for _, m := range moves {
				i, at := m[0], Time(m[1])
				if reuse {
					e.Reschedule(evs[i], at)
				} else if e.Cancel(evs[i]) {
					evs[i] = e.Schedule(at, func() { got = append(got, i) })
				}
			}
			e.Run()
			return got
		}
		a, b := run(true), run(false)
		if len(a) != len(starts) || len(b) != len(starts) {
			t.Fatalf("trial %d: %d and %d events ran, want %d", trial, len(a), len(b), len(starts))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: order diverged at %d: %v vs %v", trial, i, a, b)
			}
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run()
	}
}

func BenchmarkCancelHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		evs := make([]*Event, 1000)
		for j := range evs {
			evs[j] = e.Schedule(Time(j), func() {})
		}
		for j := 0; j < len(evs); j += 2 {
			e.Cancel(evs[j])
		}
		e.Run()
	}
}

// BenchmarkEngineScheduleStep is the engine's steady state: a queue of
// 1000 pending events where each step pops one and schedules its
// successor, the pattern of every self-rescheduling model process.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	var tick func()
	tick = func() { e.After(rng.Float64(), tick) }
	for j := 0; j < 1000; j++ {
		e.Schedule(Time(rng.Float64()), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
