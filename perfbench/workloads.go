package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/internal/cooptrans"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/movers"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/yield"
)

// workload is one closed-loop job mix. setup builds the jobs from the
// seed; it must be repeatable, since a run sets up several times.
type workload struct {
	name  string
	setup func(env env) ([]job, error)
}

// env is what a setup may depend on: the repository root and the seed.
type env struct {
	root string
	seed int64
}

func (e env) rng() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

var allWorkloads = []workload{
	{"check", setupCheck},
	{"certify", setupCertify},
	{"hunt", setupHunt},
	{"vet", setupVet},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizing of the jobs. check scales each registry program until its
// cooperative trace holds checkMinEvents..checkMaxEvents events; the
// explorers cap every job at a fixed number of schedules under the
// certify tool's default preemption bound.
const (
	checkMinEvents = 20_000
	checkMaxEvents = 100_000
	checkRandom    = 4 // random schedules per battery, as coopcheck -seeds
	exploreRuns    = 500
	exploreBound   = 2
	genDraws       = 8
	// huntGenRuns caps the DPOR jobs on gen draws lower: their cost varies
	// with the seed, and capped they stay below the median job, so the seed
	// cannot move job_p50_ms.
	huntGenRuns = 100
)

// racyVars are the registry programs whose FastTrack races are documented
// (WORKLOADS.md): the two planted racy bugs and tsp's benign bound.
var racyVars = map[string]bool{"bank-buggy": true, "raytracer-racy": true, "tsp": true}

// setupCheck sizes every registry program for the coopcheck battery.
func setupCheck(e env) ([]job, error) {
	r := e.rng()
	var jobs []job
	for _, spec := range workloads.All() {
		size, err := scaleToEvents(spec)
		if err != nil {
			return nil, err
		}
		seeds := make([]int64, checkRandom)
		for i := range seeds {
			seeds[i] = r.Int63()
		}
		jobs = append(jobs, checkJob(spec, size, seeds))
	}
	return jobs, nil
}

// scaleToEvents doubles a program's size until its cooperative trace
// reaches checkMinEvents, then bisects back below checkMaxEvents.
func scaleToEvents(spec workloads.Spec) (int, error) {
	events := func(size int) (int, error) {
		res, err := sched.Run(spec.New(0, size), sched.Options{Strategy: sched.Cooperative{}})
		if err != nil {
			return 0, fmt.Errorf("sizing %s at %d: %w", spec.Name, size, err)
		}
		return res.Events, nil
	}
	lo, hi := 0, spec.DefaultSize
	for {
		n, err := events(hi)
		if err != nil {
			return 0, err
		}
		if n >= checkMinEvents {
			if n <= checkMaxEvents {
				return hi, nil
			}
			break
		}
		lo, hi = hi, hi*2
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		n, err := events(mid)
		if err != nil {
			return 0, err
		}
		switch {
		case n < checkMinEvents:
			lo = mid
		case n > checkMaxEvents:
			hi = mid
		default:
			return mid, nil
		}
	}
	return hi, nil
}

// checkJob is coopcheck's path: the standard battery (cooperative,
// round-robin 1 and 5, seeded random), the fused Table 3 checkers on every
// trace, yield inference over the job's traces, and the coop-after pass
// with the inferred yields.
func checkJob(spec workloads.Spec, size int, seeds []int64) job {
	return job{key: fmt.Sprintf("check/%s@%d", spec.Name, size), buggy: spec.Buggy, run: func(jc *jobCtx) {
		strategies := []sched.Strategy{sched.Cooperative{}, &sched.RoundRobin{Quantum: 1}, &sched.RoundRobin{Quantum: 5}}
		for _, s := range seeds {
			strategies = append(strategies, sched.NewRandom(s))
		}
		opts := core.Options{Policy: movers.DefaultPolicy()}
		var fused []*harness.FusedAnalysis
		var traces []*trace.Trace
		races, before := 0, 0
		for _, strat := range strategies {
			p := spec.New(0, size)
			var res *sched.Result
			var err error
			jc.timed("sched.run", func() {
				res, err = sched.Run(p, sched.Options{Strategy: strat, RecordTrace: true})
			})
			if err != nil {
				jc.failf("%s under %s: %v", spec.Name, strat.Name(), err)
				return
			}
			jc.tr.noteRun(res)
			jc.res.events += int64(res.Events)
			jc.res.schedules++
			var fa *harness.FusedAnalysis
			jc.timed("fused.analyze", func() { fa = harness.FusedRunner{}.Analyze(res.Trace) })
			jc.handled("fused.analyze", res.Events)
			if len(fa.Race.RacyVars()) > 0 || len(fa.Coop.Violations()) > 0 ||
				len(fa.Atom.Violations()) > 0 || len(fa.VeloViolations) > 0 {
				jc.flagged()
			}
			races += len(fa.Race.RacyVars())
			before += len(fa.Coop.Violations())
			fused = append(fused, fa)
			traces = append(traces, res.Trace)
		}
		known := make([]map[uint64]bool, len(fused))
		for i, fa := range fused {
			known[i] = fa.KnownRaces
		}
		var inf *yield.Result
		jc.timed("yield.infer", func() { inf = yield.InferKnown(traces, known, opts, 0) })
		after := 0
		for i, tr := range traces {
			opts := opts
			opts.Yields = inf.Yields
			jc.timed("core.check", func() { after += len(fused[i].AnalyzeCoop(tr, opts).Violations()) })
			jc.handled("core.check", tr.Len())
		}
		if spec.Buggy && jc.res.firstBug < 0 {
			jc.failf("%s has a planted bug but no checker flagged it", spec.Name)
		}
		if races > 0 && !racyVars[spec.Name] {
			jc.failf("%s: FastTrack reported %d races; none are documented", spec.Name, races)
		}
		if after != 0 || !inf.Converged {
			jc.failf("%s: yield inference left %d violations (converged=%v)", spec.Name, after, inf.Converged)
		}
		jc.count("check.events", int(jc.res.events))
		jc.count("check.races", races)
		jc.count("check.coop_before", before)
		jc.count("yield.rounds", inf.Rounds)
		jc.count("yield.sites", inf.Count())
	}}
}

// setupCertify builds the certify tool's inputs: registry programs at 2
// threads and size 1, the translated cooptrans corpus, and gen draws.
func setupCertify(e env) ([]job, error) {
	return exploreJobs(e, "explore", sched.Explore, 2, 1,
		gen.Config{Threads: 2, Vars: 3, Locks: 2, OpsPerThread: 5, YieldProb: 0.1}, exploreRuns)
}

// setupHunt builds certify -dpor's inputs: larger registry programs (3
// threads, size 2), the corpus, and 3-thread gen draws.
func setupHunt(e env) ([]job, error) {
	return exploreJobs(e, "dpor", sched.ExploreDPOR, 3, 2,
		gen.Config{Threads: 3, Vars: 3, Locks: 2, OpsPerThread: 4, YieldProb: 0.1}, huntGenRuns)
}

// corpusDirs are the vendored real-Go packages cooptrans translates.
var corpusDirs = []string{"counter", "pipeline", "racybank"}

// corpusDir is a corpus package's directory relative to the root.
func corpusDir(name string) string {
	return filepath.Join("internal", "cooptrans", "testdata", "corpus", name)
}

// verdict is a job's known answer.
type verdict int

const (
	anyVerdict verdict = iota // no known answer
	mustFlag                  // a planted bug: some schedule is flagged
	mustPass                  // known cooperable: no schedule is flagged
)

// corpusVerdicts are the corpus units with a known answer: the seeded
// race and the check-then-act bug are flagged, the channel pipeline never.
var corpusVerdicts = map[string]verdict{
	"counter.Racy": mustFlag,
	"racybank.Run": mustFlag,
	"pipeline.Run": mustPass,
	"pipeline.Mix": mustPass,
}

func exploreJobs(e env, layer string, engine exploreFunc, threads, size int, gcfg gen.Config, genRuns int) ([]job, error) {
	var jobs []job
	for _, spec := range workloads.All() {
		want := anyVerdict
		if spec.Buggy {
			want = mustFlag
		}
		jobs = append(jobs, exploreJob(layer, engine, fmt.Sprintf("%s@%dx%d", spec.Name, threads, size),
			func() *sched.Program { return spec.New(threads, size) }, exploreRuns, want))
	}
	for _, dir := range corpusDirs {
		tr, err := cooptrans.Translate(filepath.Join(e.root, corpusDir(dir)))
		if err != nil {
			return nil, fmt.Errorf("translating corpus %s: %w", dir, err)
		}
		for _, u := range tr.Units {
			jobs = append(jobs, exploreJob(layer, engine, u.Name, u.Build, exploreRuns, corpusVerdicts[u.Name]))
		}
	}
	r := e.rng()
	for i := 0; i < genDraws; i++ {
		seed := r.Int63()
		jobs = append(jobs, exploreJob(layer, engine, fmt.Sprintf("gen-%d", seed),
			func() *sched.Program { return gen.Program(seed, gcfg) }, genRuns, anyVerdict))
	}
	return jobs, nil
}

// exploreJob explores one program and checks every schedule with the
// two-pass cooperability checker against the program's known answer. A
// schedule that ends in an error (deadlock, panic) fails the job: none of
// the inputs can deadlock.
func exploreJob(layer string, engine exploreFunc, name string, build func() *sched.Program, maxRuns int, want verdict) job {
	return job{key: layer + "/" + name, buggy: want == mustFlag, run: func(jc *jobCtx) {
		out, err := jc.explore(layer, engine, build(), maxRuns, exploreBound, func(res *sched.Result) bool {
			if jc.check(res).Cooperable() {
				return false
			}
			jc.flagged()
			return true
		})
		if err != nil {
			jc.failf("%s: %v", name, err)
			return
		}
		switch {
		case out.errRuns > 0:
			jc.failf("%s: %d schedule(s) failed, first: %v", name, out.errRuns, out.firstErr)
		case want == mustFlag && out.violRuns == 0:
			jc.failf("%s has a known bug but none of %d schedules was flagged", name, out.rep.Runs)
		case want == mustPass && out.violRuns > 0:
			jc.failf("%s is known cooperable but %d schedule(s) were flagged", name, out.violRuns)
		}
		jc.count(layer+".violating_runs", out.violRuns)
	}}
}
