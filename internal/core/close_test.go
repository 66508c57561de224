package core

import (
	"runtime"
	"testing"
	"time"
)

// settledAt polls the process goroutine count until it drops to at most
// want. The retry budget is generous real time with no ratio assertions
// (the deflake pattern: full-suite load can only delay goroutine exit, so
// the test asserts eventual quiescence, never speed).
func settledAt(want int) (int, bool) {
	n := 0
	for i := 0; i < 2000; i++ {
		n = runtime.NumGoroutine()
		if n <= want {
			return n, true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n, false
}

// baseline waits for the process goroutine count to stop falling (earlier
// tests' teardown draining) and returns the floor.
func baseline() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= prev {
			return n
		}
		prev = n
	}
	return prev
}

// TestBackendCloseReapsGoroutines is the lifecycle regression test behind
// Program.Close: every backend must return the process to its goroutine
// baseline after Close, both for a backend that ran and for one that was
// only constructed. The constructed-but-never-Run case is the latent leak
// that motivated Close — dsm.New starts P protocol servers that nothing
// reaped, which is exactly the state a job scheduler's backend pool holds
// backends in.
func TestBackendCloseReapsGoroutines(t *testing.T) {
	const procs = 4
	kinds := []struct {
		name    string
		kind    BackendKind
		servers int // goroutines started at construction
	}{
		{"now", BackendNOW, procs},
		{"smp", BackendSMP, 0},
		{"hybrid2", HybridIslands(2), 2}, // 2 island servers
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			base := baseline()

			// Construct-only: the servers are already running and only
			// Close reaps them.
			p := NewProgram(Config{Threads: procs, Backend: k.kind})
			if n := runtime.NumGoroutine(); n < base+k.servers {
				t.Errorf("construction started %d goroutines, want at least %d protocol servers", n-base, k.servers)
			}
			if err := p.Close(); err != nil {
				t.Fatalf("Close of never-Run backend: %v", err)
			}
			if n, ok := settledAt(base + 2); !ok {
				t.Fatalf("construct-only Close leaked: %d goroutines, baseline %d", n, base)
			}

			// Single-shot run, then Close (twice: Close is idempotent).
			p = NewProgram(Config{Threads: procs, Backend: k.kind})
			p.RegisterRegion("r", func(tc *TC) {
				tc.Worker().Compute(10)
				tc.Barrier()
			})
			if err := p.Run(func(m *MC) { m.Parallel("r", NoArgs()) }); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if n, ok := settledAt(base + 2); !ok {
				t.Fatalf("run+Close leaked: %d goroutines, baseline %d", n, base)
			}
		})
	}
}
