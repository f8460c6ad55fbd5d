package sim

import (
	"testing"

	"ampom/internal/simtime"
)

func TestScheduleAdvancesClock(t *testing.T) {
	e := New()
	var fired simtime.Time
	e.Schedule(5*simtime.Second, func() { fired = e.Now() })
	end := e.RunAll()
	if fired != simtime.Time(5*simtime.Second) {
		t.Fatalf("fired at %v, want 5s", fired)
	}
	if end != fired {
		t.Fatalf("end = %v, want %v", end, fired)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3*simtime.Second, func() { order = append(order, 3) })
	e.Schedule(1*simtime.Second, func() { order = append(order, 1) })
	e.Schedule(2*simtime.Second, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(simtime.Second, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var depth3 simtime.Time
	e.Schedule(simtime.Second, func() {
		e.Schedule(simtime.Second, func() {
			e.Schedule(simtime.Second, func() { depth3 = e.Now() })
		})
	})
	e.RunAll()
	if depth3 != simtime.Time(3*simtime.Second) {
		t.Fatalf("nested event at %v, want 3s", depth3)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(-simtime.Second, func() { fired = true })
	e.RunAll()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock = %v, want 0", e.Now())
	}
}

func TestAtClampsPast(t *testing.T) {
	e := New()
	e.Schedule(2*simtime.Second, func() {
		e.At(simtime.Time(simtime.Second), func() {
			if e.Now() != simtime.Time(2*simtime.Second) {
				t.Errorf("past-scheduled event at %v, want clamped to 2s", e.Now())
			}
		})
	})
	e.RunAll()
}

func TestRunUntilHorizon(t *testing.T) {
	e := New()
	var fired []simtime.Time
	for i := 1; i <= 5; i++ {
		d := simtime.Duration(i) * simtime.Second
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	end := e.Run(simtime.Time(3 * simtime.Second))
	if len(fired) != 3 {
		t.Fatalf("fired %d events before horizon, want 3", len(fired))
	}
	if end != simtime.Time(3*simtime.Second) {
		t.Fatalf("end = %v, want 3s", end)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.RunAll()
	if len(fired) != 5 {
		t.Fatalf("fired %d total, want 5", len(fired))
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(simtime.Duration(i)*simtime.Second, func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 4 {
		t.Fatalf("processed %d events, want 4 (Stop ignored?)", count)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := New()
	e.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		e.RunAll()
	})
	e.RunAll()
}

func TestMaxEventsGuard(t *testing.T) {
	e := New()
	e.MaxEvents = 100
	var loop func()
	loop = func() { e.Schedule(simtime.Second, loop) }
	e.Schedule(simtime.Second, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop did not trip MaxEvents")
		}
	}()
	e.RunAll()
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(simtime.Second, func() {})
	}
	e.RunAll()
	if e.Processed != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed)
	}
}

func TestRunHorizonAdvancesClockWithoutEvents(t *testing.T) {
	e := New()
	end := e.Run(simtime.Time(10 * simtime.Second))
	// No events: Run drains immediately and the clock stays at 0 (nothing
	// forced it forward), since quiescence ends the run.
	if end != 0 {
		t.Fatalf("end = %v, want 0 for empty queue", end)
	}
	e.Schedule(20*simtime.Second, func() {})
	end = e.Run(simtime.Time(10 * simtime.Second))
	if end != simtime.Time(10*simtime.Second) {
		t.Fatalf("end = %v, want horizon 10s", end)
	}
	if e.Pending() != 1 {
		t.Fatal("event beyond horizon should stay pending")
	}
}

// TestTicker stops a ticker from inside its own third tick: no fourth
// tick fires, and the withdrawn tick leaves the clock, the event count and
// the queue exactly where the third tick left them.
func TestTicker(t *testing.T) {
	e := New()
	var ticks []simtime.Time
	var tk *Ticker
	tk = NewTicker(e, simtime.Second, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	e.RunAll()
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3", ticks)
	}
	for i, at := range ticks {
		want := simtime.Time(simtime.Duration(i+1) * simtime.Second)
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	assertQuiescent(t, e, simtime.Time(3*simtime.Second), 3)
}

// TestTickerStopFromAnotherEvent stops a ticker from an unrelated event
// between ticks, the way a migration's completion stops both load
// daemons: the pending tick is removed, not left to fire as a no-op that
// would advance the clock and the event count. A second Stop is a no-op.
func TestTickerStopFromAnotherEvent(t *testing.T) {
	e := New()
	var ticks []simtime.Time
	tk := NewTicker(e, simtime.Second, func() { ticks = append(ticks, e.Now()) })
	e.At(simtime.Time(2500*simtime.Millisecond), func() {
		tk.Stop()
		tk.Stop()
	})
	e.RunAll()
	if len(ticks) != 2 {
		t.Fatalf("ticks = %v, want 2", ticks)
	}
	assertQuiescent(t, e, simtime.Time(2500*simtime.Millisecond), 3)
}

// assertQuiescent checks the engine drained at now after processed events,
// and that a further RunAll changes none of it.
func assertQuiescent(t *testing.T, e *Engine, now simtime.Time, processed uint64) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		if e.Now() != now || e.Processed != processed || e.Pending() != 0 {
			t.Fatalf("pass %d: now=%v processed=%d pending=%d, want %v/%d/0",
				pass, e.Now(), e.Processed, e.Pending(), now, processed)
		}
		e.RunAll()
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	NewTicker(New(), 0, func() {})
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() []simtime.Time {
		e := New()
		var log []simtime.Time
		var recurse func(depth int)
		recurse = func(depth int) {
			log = append(log, e.Now())
			if depth < 50 {
				e.Schedule(simtime.Duration(depth+1)*simtime.Millisecond, func() { recurse(depth + 1) })
				e.Schedule(simtime.Duration(depth+2)*simtime.Millisecond, func() { log = append(log, e.Now()) })
			}
		}
		e.Schedule(0, func() { recurse(0) })
		e.RunAll()
		return log
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
