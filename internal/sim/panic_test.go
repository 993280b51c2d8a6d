package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcPanicReachesKernel: a process body that panics must not take
// the Go process down on its own goroutine. The panic surfaces on the
// goroutine driving the kernel, named after the process, and Run and
// RunUntil still tear down every other parked process, so no goroutine
// is left blocked.
func TestProcPanicReachesKernel(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(k *Kernel)
	}{
		{"Run", func(k *Kernel) { k.Run() }},
		{"RunUntil", func(k *Kernel) { k.RunUntil(50) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			k := NewKernel()
			q := NewQueue[int](k)
			k.Spawn("stuck", func(p *Proc) { q.Recv(p) })
			k.Spawn("sleeper", func(p *Proc) { p.Wait(100) })
			k.Spawn("boomer", func(p *Proc) {
				p.Wait(5)
				panic("boom")
			})

			r := func() (r any) {
				defer func() { r = recover() }()
				tc.run(k)
				return nil
			}()
			if r == nil {
				t.Fatal("the process's panic did not reach the kernel's caller")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "boom") || !strings.Contains(msg, "boomer") {
				t.Fatalf("recovered %q, want the panic value wrapped with the process name", msg)
			}
			if k.Now() != 5 {
				t.Fatalf("clock at %v after the panic, want 5ps", k.Now())
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > start {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left running, started with %d", runtime.NumGoroutine(), start)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
