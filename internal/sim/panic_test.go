package sim

import (
	"runtime"
	"testing"
)

// TestStepPanicUnwindsRun: an actor step runs on the goroutine that
// called Run and starts none, so a step that panics unwinds out of Run
// with its own panic value, where the caller's recover catches it, and
// leaves no goroutine behind.
func TestStepPanicUnwindsRun(t *testing.T) {
	start := runtime.NumGoroutine()
	k := NewKernel()
	k.Go(func() (Time, bool) { return 100, k.Now() == 100 })
	steps := 0
	inStep := -1
	k.Go(func() (Time, bool) {
		steps++
		if steps == 1 {
			return 5, false
		}
		inStep = runtime.NumGoroutine()
		panic("boom")
	})

	r := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if r != "boom" {
		t.Fatalf("recovered %v from Run, want the step's own panic value", r)
	}
	if k.Now() != 5 {
		t.Fatalf("clock at %v after the panic, want 5ps", k.Now())
	}
	if inStep != start || runtime.NumGoroutine() != start {
		t.Fatalf("%d goroutines inside the step and %d after Run, started with %d", inStep, runtime.NumGoroutine(), start)
	}
}
