package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// Parallel exploration with a deterministic merge.
//
// Every entry of the sequential DFS stack is a forced-decision prefix whose
// replay is an independent, fully deterministic Program run — the only
// ordering constraint in the driver (explore, shared by Explore and
// ExploreDPOR) is that Visit observes results in DFS order and that a
// run's expansion seeds its children. That makes the
// search an ideal work-sharing problem: a driver goroutine walks the exact
// sequential stack discipline while a pool of workers speculatively replays
// pending prefixes pulled from a shared LIFO frontier. Because replays are
// deterministic, a speculative result is byte-identical to what the driver
// would have computed itself, so the merged visit sequence — and therefore
// every table, figure, and certificate built on top — is bit-identical to
// the sequential search, at any worker count.
//
// The frontier is kept in the same order as the driver's stack: workers
// take from the top, which is exactly the prefix the driver needs next, so
// speculation always runs ahead of the merge point rather than sideways.
// When the driver reaches a task no worker has claimed, it claims and
// replays the task inline; when a worker got there first, the driver blocks
// on that task alone while the pool keeps filling the results of deeper
// prefixes.

// exTask is one forced-decision prefix queued for replay.
type exTask struct {
	prefix []trace.TID
	done   chan struct{} // closed once res/err/points are filled; nil when sequential
	res    *Result
	err    error
	points []ChoicePoint
	flow   uint64 // flight-recorder flow ID (steal arrow); 0 when not recording
}

// exFrontier is the shared LIFO of unclaimed tasks. Claiming removes a task,
// so each task is replayed exactly once.
type exFrontier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	stack  []*exTask
	closed bool
}

func newExFrontier() *exFrontier {
	f := &exFrontier{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *exFrontier) push(t *exTask) {
	f.mu.Lock()
	f.stack = append(f.stack, t)
	f.mu.Unlock()
	f.cond.Signal()
}

// take blocks until a task is available (returning the top of the stack) or
// the frontier is closed (returning nil).
func (f *exFrontier) take() *exTask {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.stack) == 0 && !f.closed {
		f.cond.Wait()
	}
	if len(f.stack) == 0 {
		return nil
	}
	t := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return t
}

// claim removes t if it is still unclaimed and reports success. The driver
// only ever claims the task it is about to visit, which is the most recent
// unclaimed push — the top of the stack — so an identity check there
// suffices: anything else means a worker already owns t.
func (f *exFrontier) claim(t *exTask) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.stack); n > 0 && f.stack[n-1] == t {
		f.stack = f.stack[:n-1]
		return true
	}
	return false
}

func (f *exFrontier) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// replayTask executes one guided run and publishes the outcome. A task
// with a done channel has it closed unconditionally — and replayPrefix
// recovers panics anywhere in the replay — so a crashing schedule can
// never leave the driver blocked on t.done.
func replayTask(p *Program, opts *ExploreOptions, ctx context.Context, t *exTask) {
	if t.done != nil {
		defer close(t.done)
	}
	t.res, t.points, t.err = replayPrefix(p, opts, ctx, t.prefix)
	mExploreReplays.Inc()
}

// runWorkers starts n workers that speculatively replay tasks taken off
// the frontier and returns the function that stops them. Stopping closes
// the frontier (abandoning unclaimed speculation) and waits for in-flight
// replays, so no goroutine outlives the search: idle workers wake from
// take() and exit, and in-flight replays either finish or (when a
// cancellation context is set) abort at their next per-1024-event check.
func (f *exFrontier) runWorkers(p *Program, opts *ExploreOptions, bud *BudgetTracker, fr *flight.Recorder, n int) (stop func()) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var wtrack *flight.Track
			if fr != nil {
				wtrack = fr.Track(fmt.Sprintf("explore-worker-%d", w+1))
			}
			for {
				idle := time.Now()
				t := f.take()
				mWorkerIdleNs.Add(int64(time.Since(idle)))
				if t == nil {
					return
				}
				var replaySpan flight.Span
				if wtrack != nil {
					wtrack.FlowIn(flight.CatSched, "steal", t.flow)
					replaySpan = wtrack.Begin(flight.CatSched, "replay", 0,
						flight.A("depth", int64(len(t.prefix))))
				}
				busy := time.Now()
				replayTask(p, opts, bud.RunContext(), t)
				mWorkerBusyNs.Add(int64(time.Since(busy)))
				mExploreSteals.Inc()
				if wtrack != nil {
					EndRunSpan(replaySpan, t.res, t.err)
				}
			}
		}(w)
	}
	return func() {
		f.close()
		wg.Wait()
	}
}
