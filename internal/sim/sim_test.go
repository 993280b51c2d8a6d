package sim

import (
	"slices"
	"testing"
)

// after starts an actor that runs fn once d has passed.
func after(k *Kernel, d Time, fn func()) *Actor {
	waited := false
	return k.Go(func() (Time, bool) {
		if !waited {
			waited = true
			return d, false
		}
		fn()
		return 0, true
	})
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	after(k, 30, func() { got = append(got, 3) })
	after(k, 10, func() { got = append(got, 1) })
	after(k, 20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("actors stepped in order %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("final time %v, want 30ps", k.Now())
	}
}

// TestSameTimeFIFO: actors queued for the same instant step in the
// order they were queued, both when started and after equal waits.
func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		k.Go(waitsThen(func() { got = append(got, i) }, 5))
	}
	k.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !slices.Equal(got, want) {
		t.Fatalf("same-time actors stepped in order %v, want %v", got, want)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			after(k, 1, rec)
		}
	}
	after(k, 1, rec)
	k.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if k.Now() != 100 {
		t.Fatalf("time = %v", k.Now())
	}
}

// waitsThen is an actor step that waits each of waits in turn, calling
// mark at the start of every step.
func waitsThen(mark func(), waits ...Time) func() (Time, bool) {
	return func() (Time, bool) {
		mark()
		if len(waits) == 0 {
			return 0, true
		}
		w := waits[0]
		waits = waits[1:]
		return w, false
	}
}

func TestProcWait(t *testing.T) {
	k := NewKernel()
	var marks []Time
	k.Go(waitsThen(func() { marks = append(marks, k.Now()) }, 100, 50))
	k.Run()
	want := []Time{0, 100, 150}
	if len(marks) != 3 || marks[0] != want[0] || marks[1] != want[1] || marks[2] != want[2] {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
}

// TestWakeResumesDoneActor: an actor that reports done sleeps, and Wake
// resumes its step function after the given delay.
func TestWakeResumesDoneActor(t *testing.T) {
	k := NewKernel()
	var marks []Time
	steps := 0
	a := k.Go(func() (Time, bool) {
		steps++
		marks = append(marks, k.Now())
		return 3, steps%2 == 0
	})
	k.Run()
	after(k, 100, func() { a.Wake(7) })
	k.Run()
	// Done at 3; woken at 103 to step again 7 later.
	if want := []Time{0, 3, 110, 113}; !slices.Equal(marks, want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		for _, name := range []string{"a", "b"} {
			k.Go(waitsThen(func() { log = append(log, name) }, 10, 10, 10))
		}
		k.Run()
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	if len(first) != 8 {
		t.Fatalf("log = %v", first)
	}
}

// TestDeadlockedQueueQuiesces: an actor asleep until a Wake that never
// comes must not keep Run spinning: Run returns when the queue drains.
func TestDeadlockedQueueQuiesces(t *testing.T) {
	k := NewKernel()
	k.Go(func() (Time, bool) { return 0, true })
	k.Run() // would hang forever if Run failed to quiesce
	if k.Step() {
		t.Fatal("a step left queued after Run returned")
	}
}

func TestClockMHz(t *testing.T) {
	cases := []struct {
		mhz    uint64
		period Time
	}{
		{10, 100_000}, // 100 ns
		{25, 40_000},  // 40 ns
		{50, 20_000},  // 20 ns
		{1000, 1_000}, // 1 ns
	}
	for _, c := range cases {
		clk := ClockMHz(c.mhz)
		if clk.Period != c.period {
			t.Errorf("ClockMHz(%d).Period = %v, want %v", c.mhz, clk.Period, c.period)
		}
	}
	if got := ClockMHz(50).Cycles(66_000); got != Time(66_000)*20_000 {
		t.Errorf("Cycles(66000) = %v", got)
	}
	if got := ClockMHz(10).CyclesAt(10 * Millisecond); got != 100_000 {
		t.Errorf("CyclesAt(10ms) = %d cycles, want 100000", got)
	}
}

func TestClockMHzRejectsInexact(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 7 MHz")
		}
	}()
	ClockMHz(7)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000µs"},
		{10 * Millisecond, "10.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", uint64(c.t), got, c.want)
		}
	}
}

func TestSpawnAfterTimeAdvanced(t *testing.T) {
	k := NewKernel()
	var start Time
	after(k, 100, func() {
		k.Go(func() (Time, bool) {
			start = k.Now()
			return 0, true
		})
	})
	k.Run()
	if start != 100 {
		t.Fatalf("late-started actor first stepped at %v", start)
	}
}

// TestSelfWakeMustReportDone: an actor that queues its own next step
// and then returns a wait would be queued twice; the kernel refuses.
func TestSelfWakeMustReportDone(t *testing.T) {
	k := NewKernel()
	var a *Actor
	a = k.Go(func() (Time, bool) {
		a.Wake(1)
		return 1, false
	})
	defer func() {
		if recover() == nil {
			t.Fatal("an actor that woke itself and stepped on did not panic")
		}
	}()
	k.Run()
}
