package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/core"
	"repro/internal/movers"
	"repro/internal/sched"
)

// job is one user-level request ending in a verdict: one program through
// one tool path. run must record every known-answer failure with failf.
type job struct {
	key string
	// buggy marks a program with a planted defect: its job must flag it,
	// and its time to the first flagged schedule feeds first_bug_ms.
	buggy bool
	run   func(jc *jobCtx)
	// probe, when set, runs before each traced execution of the job,
	// outside its clock, to measure what the job's own calls cannot split.
	probe func(tr *tracer) error
}

// count is one exact count a job reports. Counts of one job must repeat
// exactly whenever the job runs again with the same seed.
type count struct {
	Name string `json:"name"`
	V    int64  `json:"v"`
}

// jobResult is what a job reports besides its duration.
type jobResult struct {
	events    int64
	schedules int64
	// firstBug is the time from job start to the first flagged schedule,
	// or -1 when none was flagged.
	firstBug time.Duration
	counts   []count
	problems []string
}

// jobCtx is handed to a running job. With tracing off (tr == nil) every
// helper reduces to calling the layer directly.
type jobCtx struct {
	tr      *tracer
	start   time.Time
	jobSpan uint64
	parents []uint64
	res     jobResult
}

func newJobCtx(tr *tracer) *jobCtx {
	return &jobCtx{tr: tr, start: time.Now(), res: jobResult{firstBug: -1}}
}

// timed calls fn as one call into the named layer: a span on the trace,
// one call and its busy time on the layer's accumulator.
func (jc *jobCtx) timed(layer string, fn func()) {
	if jc.tr == nil {
		fn()
		return
	}
	parent := jc.jobSpan
	if n := len(jc.parents); n > 0 {
		parent = jc.parents[n-1]
	}
	o := jc.tr.begin(catLayer, layer, parent, jc.jobSpan)
	jc.parents = append(jc.parents, o.id)
	fn()
	jc.parents = jc.parents[:len(jc.parents)-1]
	jc.tr.layers.add(layer, 1, jc.tr.end(o), 0)
}

// handled credits events to a layer's throughput (traced phase only).
func (jc *jobCtx) handled(layer string, events int) {
	if jc.tr != nil {
		jc.tr.layers.add(layer, 0, 0, int64(events))
	}
}

func (jc *jobCtx) failf(format string, args ...any) {
	jc.res.problems = append(jc.res.problems, fmt.Sprintf(format, args...))
}

// flagged notes that a schedule was flagged; the first one timestamps
// first_bug_ms.
func (jc *jobCtx) flagged() {
	if jc.res.firstBug < 0 {
		jc.res.firstBug = time.Since(jc.start)
	}
}

func (jc *jobCtx) count(name string, v int) {
	jc.res.counts = append(jc.res.counts, count{name, int64(v)})
}

// check runs the two-pass cooperability checker — the certify path's
// per-schedule verdict — over one recorded run.
func (jc *jobCtx) check(res *sched.Result) *core.Checker {
	var c *core.Checker
	jc.timed("core.check", func() {
		c = core.AnalyzeTwoPass(res.Trace, core.Options{Policy: movers.DefaultPolicy()})
	})
	jc.handled("core.check", res.Events)
	return c
}

// exploreFunc is an exploration engine: sched.Explore or sched.ExploreDPOR.
type exploreFunc = func(*sched.Program, sched.ExploreOptions) (*sched.ExploreReport, error)

// explored summarizes one exploration.
type explored struct {
	rep                         *sched.ExploreReport
	violRuns, errRuns, outcomes int
	firstErr                    error
}

// explore runs one exploration through the given engine at Parallel 1,
// calling visit on every schedule that completed. Traced, it splits the
// engine's wall clock into visit time, time inside the runtime's runs,
// and the rest (explorer bookkeeping), and attributes heap allocations
// outside the visits to the engine.
func (jc *jobCtx) explore(layer string, engine exploreFunc, p *sched.Program, maxRuns, bound int,
	visit func(res *sched.Result) bool) (explored, error) {
	var out explored
	finals := map[uint64]bool{}
	var visitNs, runNs, visitObjs, visitBytes int64
	opts := sched.ExploreOptions{
		MaxRuns:        maxRuns,
		MaxPreemptions: bound,
		RecordTrace:    true,
		Parallel:       1,
		Visit: func(res *sched.Result, err error) bool {
			var t0 time.Time
			var o0, b0 int64
			if jc.tr != nil {
				t0 = time.Now()
				o0, b0 = heapAllocs()
				jc.tr.noteRun(res)
				if res != nil {
					runNs += res.Stats.PhaseTotalNs
				}
			}
			finals[finalHash(res, err)] = true
			switch {
			case err != nil:
				out.errRuns++
				if out.firstErr == nil {
					out.firstErr = err
				}
			case visit(res):
				out.violRuns++
			}
			if jc.tr != nil {
				o1, b1 := heapAllocs()
				visitNs += time.Since(t0).Nanoseconds()
				visitObjs += o1 - o0
				visitBytes += b1 - b0
			}
			return true
		},
	}
	var err error
	var wall time.Duration
	var objs, bytes int64
	jc.timed(layer, func() {
		var o0, b0 int64
		if jc.tr != nil {
			o0, b0 = heapAllocs()
		}
		t0 := time.Now()
		out.rep, err = engine(p, opts)
		wall = time.Since(t0)
		if jc.tr != nil {
			o1, b1 := heapAllocs()
			objs, bytes = o1-o0, b1-b0
		}
	})
	if err != nil {
		return out, err
	}
	out.outcomes = len(finals)
	if jc.tr != nil {
		engineNs := wall.Nanoseconds() - visitNs
		l := jc.tr.layers
		l.add(layer+".engine", 1, engineNs, out.rep.States)
		l.add(layer+".bookkeeping", 0, engineNs-runNs, 0)
		l.add(layer+".runs", int64(out.rep.Runs), 0, 0)
		l.add(layer+".allocs", objs-visitObjs, bytes-visitBytes, 0)
	}
	jc.res.events += out.rep.States
	jc.res.schedules += int64(out.rep.Runs)
	jc.count(layer+".runs", out.rep.Runs)
	jc.count(layer+".states", int(out.rep.States))
	jc.count(layer+".outcomes", out.outcomes)
	return out, nil
}

// finalHash identifies a run's outcome: its final variable values, or the
// fact that it ended in an error.
func finalHash(res *sched.Result, err error) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	if err != nil || res == nil {
		put(-1)
		return h.Sum64()
	}
	for _, v := range res.FinalVars {
		put(v)
	}
	put(int64(len(res.FinalVars)))
	for _, v := range res.FinalVolatiles {
		put(v)
	}
	return h.Sum64()
}
