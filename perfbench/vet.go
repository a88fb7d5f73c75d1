package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cooptrans"
	"repro/internal/harness"
	"repro/internal/obs/flight"
	"repro/internal/sched"
	"repro/internal/static"
)

// A vet job runs in a fresh process, as every coopvet or cooptrans
// invocation pays the stdlib import type-check anew. The child is this
// binary, selected by childEnv; it prints one childReport line.
const (
	childEnv      = "PERFBENCH_CHILD" // "coopvet", "cooptrans" or "load"
	childDirEnv   = "PERFBENCH_DIR"
	childTraceEnv = "PERFBENCH_TRACE"
)

// vetDSLDirs are the sched-DSL packages coopvet users run it over.
var vetDSLDirs = []string{
	"examples/bank", "examples/deadlock", "examples/explore", "examples/pipeline", "examples/quickstart",
	"internal/workloads", "internal/static/diffprogs",
}

// vetMaxRuns and vetBound are cooptrans -run's defaults.
const (
	vetMaxRuns = 200
	vetBound   = 1
)

// setupVet lists the front-end jobs: cooptrans -run over every corpus
// package and coopvet over every DSL package. The seed only orders them.
// The first job doubles as the warm-up, so it is the cheapest one that
// reaches every layer of the path.
func setupVet(e env) ([]job, error) {
	var jobs []job
	add := func(kind, dir string, buggy bool) error {
		if _, err := os.Stat(filepath.Join(e.root, dir)); err != nil {
			return fmt.Errorf("vet input: %w", err)
		}
		jobs = append(jobs, vetJob(e.root, kind, dir, buggy))
		return nil
	}
	for _, name := range corpusDirs {
		// counter and racybank hold the planted bugs; pipeline has none.
		if err := add("cooptrans", corpusDir(name), name != "pipeline"); err != nil {
			return nil, err
		}
	}
	for _, dir := range vetDSLDirs {
		if err := add("coopvet", dir, false); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// childReport is a vet child's result, one JSON line on its stdout.
type childReport struct {
	WallNs     int64          `json:"wall_ns"`
	FirstBugNs int64          `json:"first_bug_ns"`
	Events     int64          `json:"events"`
	Schedules  int64          `json:"schedules"`
	Counts     []count        `json:"counts"`
	Problems   []string       `json:"problems"`
	Layers     layerStats     `json:"layers,omitempty"`
	Spans      []flight.Event `json:"spans,omitempty"`
}

// vetJob runs the CLI named by kind over dir in a child process.
func vetJob(root, kind, dir string, buggy bool) job {
	j := job{key: kind + "/" + filepath.ToSlash(dir), buggy: buggy, run: func(jc *jobCtx) {
		rep, err := runChild(root, kind, dir, jc.tr != nil)
		if err != nil {
			jc.failf("%s %s: %v", kind, dir, err)
			return
		}
		if rep.FirstBugNs >= 0 {
			// The child timed its first bug from its own start; the time
			// before that start is process creation.
			jc.res.firstBug = time.Since(jc.start) - time.Duration(rep.WallNs-rep.FirstBugNs)
		}
		jc.res.events += rep.Events
		jc.res.schedules += rep.Schedules
		jc.res.problems = append(jc.res.problems, rep.Problems...)
		jc.res.counts = append(jc.res.counts, rep.Counts...)
		if jc.tr != nil {
			jc.tr.layers.merge(rep.Layers)
			jc.tr.adopt(rep.Spans, jc.tr.now()-rep.WallNs, jc.jobSpan)
		}
	}}
	// static.Analyze loads and interprets in one call; a separate Load in
	// its own process splits the two.
	j.probe = func(tr *tracer) error {
		rep, err := runChild(root, "load", dir, false)
		if err != nil {
			return fmt.Errorf("load probe %s: %w", dir, err)
		}
		tr.layers.add("static.load", 1, rep.WallNs, 0)
		return nil
	}
	return j
}

// runChild runs one vet child to completion and decodes its report.
func runChild(root, kind, dir string, traced bool) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), childEnv+"="+kind, childDirEnv+"="+dir,
		fmt.Sprintf("%s=%v", childTraceEnv, traced), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &rep, nil
}

// childMain is the body of a vet child process.
func childMain(kind string, stdout io.Writer) int {
	dir := os.Getenv(childDirEnv)
	var tr *tracer
	if os.Getenv(childTraceEnv) == "true" {
		flight.Enable(flight.Options{})
		tr = newTracer()
	}
	jc := newJobCtx(tr)
	snap := snapProc()
	switch kind {
	case "load":
		if _, err := static.Load([]string{dir}); err != nil {
			jc.failf("load %s: %v", dir, err)
		}
	case "coopvet":
		coopvet(jc, dir)
	case "cooptrans":
		cooptransRun(jc, dir)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child kind %q\n", kind)
		return 2
	}
	rep := childReport{
		WallNs:     time.Since(jc.start).Nanoseconds(),
		FirstBugNs: jc.res.firstBug.Nanoseconds(),
		Events:     jc.res.events,
		Schedules:  jc.res.schedules,
		Counts:     jc.res.counts,
		Problems:   jc.res.problems,
	}
	if jc.res.firstBug < 0 {
		rep.FirstBugNs = -1
	}
	if tr != nil {
		flight.Disable()
		tr.layers.addProcDelta(snap)
		rep.Layers = tr.layers
		rep.Spans = tr.events
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return 0
}

// coopvet is `coopvet <dir>`: the static pass and its text report.
func coopvet(jc *jobCtx, dir string) {
	var rep *static.Report
	var err error
	jc.timed("static.analyze", func() { rep, err = static.Analyze([]string{dir}, static.Config{}) })
	if err != nil {
		jc.failf("coopvet %s: %v", dir, err)
		return
	}
	if err := rep.WriteText(io.Discard); err != nil {
		jc.failf("coopvet %s: %v", dir, err)
	}
	if rep.Stats.Funcs == 0 {
		jc.failf("coopvet %s: no functions analyzed", dir)
	}
	countStatic(jc, rep)
}

func countStatic(jc *jobCtx, rep *static.Report) {
	jc.count("static.funcs", rep.Stats.Funcs)
	jc.count("static.findings", rep.Stats.Findings)
	jc.count("static.unknown", rep.Stats.Unknown)
	jc.count("static.type_errors", rep.TypeErrors)
}

// cooptransRun is `cooptrans -run <dir>`, the steps of harness.ThreeWay
// called one by one so each layer is timed: translate, the static pass,
// per unit an exploration checked schedule by schedule plus the fused
// checkers on the cooperative schedule, and the agreement rule.
func cooptransRun(jc *jobCtx, dir string) {
	var tr *cooptrans.Translation
	var err error
	jc.timed("cooptrans.translate", func() { tr, err = cooptrans.Translate(dir) })
	if err != nil {
		jc.failf("cooptrans %s: %v", dir, err)
		return
	}
	var srep *static.Report
	jc.timed("static.analyze", func() { srep, err = static.Analyze([]string{dir}, static.Config{}) })
	if err != nil {
		jc.failf("cooptrans %s: %v", dir, err)
		return
	}
	jc.count("cooptrans.units", len(tr.Units))
	jc.count("cooptrans.diags", len(tr.Diags))
	countStatic(jc, srep)
	contradictions := 0
	for _, u := range tr.Units {
		locs := map[string]bool{}
		want := corpusVerdicts[u.Name]
		out, err := jc.explore("explore", sched.Explore, u.Build(), vetMaxRuns, vetBound, func(res *sched.Result) bool {
			vs := jc.check(res).Violations()
			for _, v := range vs {
				locs[res.Trace.Strings.Name(v.Event.Loc)] = true
			}
			if len(vs) > 0 && want == mustFlag {
				jc.flagged()
			}
			return len(vs) > 0
		})
		if err != nil {
			jc.failf("%s: %v", u.Name, err)
			return
		}
		switch {
		case want == mustFlag && out.violRuns == 0:
			jc.failf("%s has a known bug but none of %d schedules was flagged", u.Name, out.rep.Runs)
		case want == mustPass && out.violRuns > 0:
			jc.failf("%s is known cooperable but %d schedule(s) were flagged", u.Name, out.violRuns)
		}
		var res *sched.Result
		jc.timed("sched.run", func() {
			res, err = sched.Run(u.Build(), sched.Options{Strategy: &sched.Cooperative{}, RecordTrace: true})
		})
		if err == nil {
			jc.tr.noteRun(res)
			jc.res.events += int64(res.Events)
			jc.res.schedules++
			jc.timed("fused.analyze", func() { harness.FusedRunner{}.Analyze(res.Trace) })
			jc.handled("fused.analyze", res.Events)
		}
		for loc := range locs {
			for _, f := range srep.Funcs {
				if f.Claimed() && f.Contains(loc) {
					contradictions++
					jc.failf("three-way contradiction: %s claimed %s yet %s violates at %s", f.Name, f.Verdict, u.Name, loc)
				}
			}
		}
	}
	jc.count("cooptrans.contradictions", contradictions)
}
