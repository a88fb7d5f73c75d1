package sched

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// requireNoGoroutineLeak runs f and fails if the process goroutine count
// has not returned to its baseline shortly after: every worker, replayed
// virtual thread, and frontier waiter must be gone when Explore returns,
// on every exit path.
func requireNoGoroutineLeak(t *testing.T, f func()) {
	t.Helper()
	base := runtime.NumGoroutine()
	f()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExploreNoGoroutineLeak covers every way a search can end — clean
// completion, early stop, each budget cutoff, cancellation, and replay
// panics — at both worker counts and for both engines, asserting no
// goroutine outlives the call.
func TestExploreNoGoroutineLeak(t *testing.T) {
	scenarios := []struct {
		name string
		opts func() ExploreOptions
	}{
		{"complete", func() ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Visit: func(*Result, error) bool { return true }}
		}},
		{"early-stop", func() ExploreOptions {
			visits := 0
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Visit: func(*Result, error) bool { visits++; return visits < 3 }}
		}},
		{"max-runs", func() ExploreOptions {
			return ExploreOptions{MaxRuns: 2, MaxPreemptions: 2,
				Visit: func(*Result, error) bool { return true }}
		}},
		{"max-states", func() ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Budget: Budget{MaxStates: 30},
				Visit:  func(*Result, error) bool { return true }}
		}},
		{"mem-budget", func() ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Budget: Budget{MemBudget: 1},
				Visit:  func(*Result, error) bool { return true }}
		}},
		{"deadline", func() ExploreOptions {
			return ExploreOptions{MaxRuns: 1_000_000, MaxPreemptions: 2,
				Budget: Budget{Timeout: time.Millisecond},
				Visit:  func(*Result, error) bool { return true }}
		}},
		{"cancel-mid-search", func() ExploreOptions {
			ctx, cancel := context.WithCancel(context.Background())
			visits := 0
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Budget: Budget{Ctx: ctx},
				Visit: func(*Result, error) bool {
					visits++
					if visits == 2 {
						cancel()
					}
					return true
				}}
		}},
		{"observer-panic", func() ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Observers: func() []Observer { return []Observer{&schedulePanicObserver{}} },
				Visit:     func(*Result, error) bool { return true }}
		}},
		{"factory-panic", func() ExploreOptions {
			return ExploreOptions{MaxRuns: 100, MaxPreemptions: 2,
				Observers: func() []Observer { panic("factory exploded") },
				Visit:     func(*Result, error) bool { return true }}
		}},
	}
	for _, eng := range engines {
		for _, sc := range scenarios {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s%s/parallel=%d", eng.prefix, sc.name, workers), func(t *testing.T) {
					requireNoGoroutineLeak(t, func() {
						opts := sc.opts()
						opts.Parallel = workers
						prog := incrementers
						if sc.name == "deadline" {
							prog = func() *Program { return counterProgram(3, 60, true) }
						}
						if _, err := eng.explore(prog(), opts); err != nil {
							t.Fatal(err)
						}
					})
				})
			}
		}
	}
}
