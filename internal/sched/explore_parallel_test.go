package sched

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// engine is an exploration entry point. Both run the same driver, so the
// fault, budget, leak and determinism tables run against each; Explore's
// cases keep their unprefixed subtest names.
type engine struct {
	prefix  string // subtest-name and message prefix
	explore func(*Program, ExploreOptions) (*ExploreReport, error)
}

var engines = []engine{{"", Explore}, {"dpor/", ExploreDPOR}}

// visitLog runs the explorer and records a deterministic fingerprint of
// every visit, in order.
func visitLog(t *testing.T, explore func(*Program, ExploreOptions) (*ExploreReport, error), build func() *Program, opts ExploreOptions) ([]string, int) {
	t.Helper()
	var log []string
	opts.RecordTrace = true
	opts.Visit = func(res *Result, err error) bool {
		switch {
		case err != nil:
			log = append(log, "err:"+err.Error())
		default:
			log = append(log, fmt.Sprintf("%v|%v", res.FinalVars, res.Schedule))
		}
		return true
	}
	rep, err := explore(build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return log, rep.Runs
}

// TestExploreParallelBitIdentical asserts the tentpole property: the visit
// sequence (not just the multiset) and the run count are identical between
// the sequential DFS and the work-sharing engine at several worker counts,
// for the exhaustive and the conflict-directed expander alike.
func TestExploreParallelBitIdentical(t *testing.T) {
	builds := map[string]func() *Program{
		"two-writers":          twoWriters,
		"incrementers":         incrementers,
		"locked-incrementers":  lockedIncrementers,
		"counter-2x2":          func() *Program { return counterProgram(2, 2, true) },
		"counter-3x1-unlocked": func() *Program { return counterProgram(3, 1, false) },
	}
	for _, eng := range engines {
		for name, build := range builds {
			t.Run(eng.prefix+name, func(t *testing.T) {
				base := ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2}
				seqLog, seqRuns := visitLog(t, eng.explore, build, base)
				for _, workers := range []int{2, 4, 8} {
					opts := base
					opts.Parallel = workers
					parLog, parRuns := visitLog(t, eng.explore, build, opts)
					if parRuns != seqRuns {
						t.Fatalf("parallel=%d: runs = %d, sequential = %d", workers, parRuns, seqRuns)
					}
					if len(parLog) != len(seqLog) {
						t.Fatalf("parallel=%d: %d visits vs %d", workers, len(parLog), len(seqLog))
					}
					for i := range seqLog {
						if parLog[i] != seqLog[i] {
							t.Fatalf("parallel=%d: visit %d differs:\n  seq %s\n  par %s",
								workers, i, seqLog[i], parLog[i])
						}
					}
				}
			})
		}
	}
}

// TestExploreParallelEarlyStop: Visit returning false stops both engines at
// the same visit count, and the parallel engine must not leak workers (the
// deferred close/wait would hang the test if it did).
func TestExploreParallelEarlyStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		visits := 0
		rep, err := Explore(incrementers(), ExploreOptions{
			MaxRuns:        4000,
			MaxPreemptions: 2,
			Parallel:       workers,
			Visit: func(*Result, error) bool {
				visits++
				return visits < 3
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs != 3 || visits != 3 {
			t.Fatalf("parallel=%d: runs=%d visits=%d, want 3", workers, rep.Runs, visits)
		}
	}
}

// TestExploreParallelMaxRuns: truncation by MaxRuns lands on the same
// prefix of the visit sequence.
func TestExploreParallelMaxRuns(t *testing.T) {
	base := ExploreOptions{MaxRuns: 7, MaxPreemptions: 2}
	seqLog, seqRuns := visitLog(t, Explore, incrementers, base)
	par := base
	par.Parallel = 4
	parLog, parRuns := visitLog(t, Explore, incrementers, par)
	if seqRuns != 7 || parRuns != 7 {
		t.Fatalf("runs: seq=%d par=%d, want 7", seqRuns, parRuns)
	}
	for i := range seqLog {
		if parLog[i] != seqLog[i] {
			t.Fatalf("visit %d differs under truncation", i)
		}
	}
}

// TestExploreParallelObserverFactory: the factory must be invoked for every
// visited run (speculative extras are allowed, missing instances are not).
func TestExploreParallelObserverFactory(t *testing.T) {
	var calls atomic.Int32
	rep, err := Explore(twoWriters(), ExploreOptions{
		MaxRuns:        100,
		MaxPreemptions: 1,
		Parallel:       4,
		Observers: func() []Observer {
			calls.Add(1)
			return []Observer{&CountObserver{}}
		},
		Visit: func(res *Result, err error) bool { return err == nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) < rep.Runs {
		t.Fatalf("observer factory called %d times for %d runs", calls.Load(), rep.Runs)
	}
}

// TestPreemptionPrefixMatchesNaive is the regression test for the
// incremental preemption counting: on a deep synthetic decision path the
// prefix sums must agree with the quadratic recount at every index.
func TestPreemptionPrefixMatchesNaive(t *testing.T) {
	points := make([]ChoicePoint, 2000)
	for i := range points {
		cur := trace.TID(i % 3)
		if i%17 == 0 {
			cur = -1 // start-of-run style point
		}
		chosen := trace.TID((i + i/7) % 3)
		points[i] = ChoicePoint{
			Runnable: []trace.TID{0, 1, 2},
			Chosen:   chosen,
			Current:  cur,
			EventIdx: i,
		}
	}
	pre := preemptionPrefix(points)
	for i := 0; i <= len(points); i++ {
		if want := preemptionsIn(points[:i]); pre[i] != want {
			t.Fatalf("prefix[%d] = %d, naive = %d", i, pre[i], want)
		}
	}
}

// TestExploreDeepDecisionTree drives the explorer over a deep tree (many
// decision points per run) and bounds its wall time; before the prefix-sum
// fix the per-run expansion was quadratic in depth and this blows up.
func TestExploreDeepDecisionTree(t *testing.T) {
	start := time.Now()
	rep, err := Explore(counterProgram(2, 200, true), ExploreOptions{
		MaxRuns:        40,
		MaxPreemptions: 1,
		Visit:          func(res *Result, err error) bool { return err == nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 40 {
		t.Fatalf("runs = %d, want 40", rep.Runs)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("deep exploration took %v; expansion likely superlinear again", d)
	}
}

// BenchmarkExploreSequential and BenchmarkExploreParallel isolate the
// exploration engines (events/sec, allocs/op) outside the table harness.
func benchmarkExplore(b *testing.B, workers int) {
	b.ReportAllocs()
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := 0
		if _, err := Explore(counterProgram(2, 4, true), ExploreOptions{
			MaxRuns:        600,
			MaxPreemptions: 2,
			Parallel:       workers,
			Visit: func(res *Result, err error) bool {
				if res != nil {
					ev += res.Events
				}
				return true
			},
		}); err != nil {
			b.Fatal(err)
		}
		events = ev
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkExploreSequential(b *testing.B) { benchmarkExplore(b, 1) }

func BenchmarkExploreParallel4(b *testing.B) { benchmarkExplore(b, 4) }
