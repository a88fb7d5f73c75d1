package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// metric is one reported number. ok false marks a layer the workload's
// jobs never reach: the text says n/a, the JSON (for the metrics it
// carries) says 0.
type metric struct {
	name, unit string
	value      float64
	ok         bool
	note       string
}

// endToEnd lists the metrics of the untraced phase, in the order of the
// end_to_end list of BENCHMARK.json; fail_ratio and the tail percentiles
// are printed but kept out of the JSON (a ratio that is 0 on a healthy
// run, and percentiles defined only for enough jobs).
func endToEnd(r *results) []metric {
	ph := r.plain
	secs := ph.wall.Seconds()
	var durs, bugs []float64
	var events, schedules int64
	for _, rec := range ph.records {
		durs = append(durs, ms(rec.dur))
		events += rec.events
		schedules += rec.schedules
		if rec.buggy && rec.firstBug >= 0 {
			bugs = append(bugs, ms(rec.firstBug))
		}
	}
	sort.Float64s(durs)
	n := len(durs)
	out := []metric{
		{name: "setup_s", unit: "s", value: median(r.setup), ok: true,
			note: fmt.Sprintf("median of %d set-ups: %s", len(r.setup), joinFloats(r.setup))},
		{name: "jobs_per_s", unit: "1/s", value: float64(n) / secs, ok: true,
			note: fmt.Sprintf("%d jobs in %.3f s", n, secs)},
		{name: "job_p50_ms", unit: "ms", value: quantile(durs, 0.5), ok: true, note: fmt.Sprintf("n=%d", n)},
		{name: "events_per_s", unit: "1/s", value: float64(events) / secs, ok: true,
			note: fmt.Sprintf("%d events", events)},
		{name: "schedules_per_s", unit: "1/s", value: float64(schedules) / secs, ok: true,
			note: fmt.Sprintf("%d schedules", schedules)},
		{name: "first_bug_ms", unit: "ms", value: median(bugs), ok: len(bugs) > 0,
			note: fmt.Sprintf("median over %d buggy-program jobs", len(bugs))},
		{name: "peak_rss_mb", unit: "MB", value: r.rssMB, ok: true, note: "largest of this process and its children"},
	}
	p90 := metric{name: "job_p90_ms", unit: "ms", note: fmt.Sprintf("n=%d; needs >= 100", n)}
	if p, ok := tailPercentile(n); ok && p >= 90 {
		p90.value, p90.ok = quantile(durs, 0.9), true
		p90.note = fmt.Sprintf("n=%d", n)
	}
	tail := metric{name: "job_tail_ms", unit: "ms", note: fmt.Sprintf("n=%d; no percentile has %d samples beyond it", n, minBeyond)}
	if p, ok := tailPercentile(n); ok {
		tail.value, tail.ok = quantile(durs, p/100), true
		tail.note = fmt.Sprintf("p%g, n=%d", p, n)
	}
	fail := ratio{float64(r.bench.failed), float64(r.bench.attempted), "failed", "jobs"}
	return append(out, p90, tail,
		metric{name: "fail_ratio", unit: "ratio", value: fail.value(), ok: true, note: fail.String()})
}

// jsonEndToEnd are the end-to-end metrics the JSON line carries.
var jsonEndToEnd = []string{"setup_s", "jobs_per_s", "job_p50_ms", "events_per_s", "schedules_per_s", "first_bug_ms", "peak_rss_mb"}

// layerDef derives one per-layer metric from the traced phase. inJSON
// marks the metrics BENCHMARK.json lists: those every workload measures
// and the exact counts.
type layerDef struct {
	name, unit string
	inJSON     bool
	value      func(t *layerView) (float64, string, bool)
}

// layerView is what the per-layer metrics are computed from.
type layerView struct {
	l        layerStats
	counts   map[string]int64
	jobs     int
	overhead ratio
}

func perCall(a acc) (float64, string, bool) {
	if a.N == 0 {
		return 0, "layer not reached", false
	}
	return float64(a.Ns) / float64(a.N) / 1e6, fmt.Sprintf("%d calls", a.N), true
}

func rate(events, ns int64, what string) (float64, string, bool) {
	if ns == 0 {
		return 0, "layer not reached", false
	}
	return float64(events) / (float64(ns) / 1e9), fmt.Sprintf("%d %s in %.3f s", events, what, float64(ns)/1e9), true
}

func fromRatio(r ratio) (float64, string, bool) {
	return r.value(), r.String(), r.den != 0
}

// exact is a count summed over one round of jobs; 0 where no job of the
// workload reaches the layer.
func exact(name string) func(t *layerView) (float64, string, bool) {
	return func(t *layerView) (float64, string, bool) {
		return float64(t.counts[name]), "per round", true
	}
}

func perRun(key, runsKey string, bytes bool) func(t *layerView) (float64, string, bool) {
	return func(t *layerView) (float64, string, bool) {
		a, runs := t.l.get(key), t.l.get(runsKey).N
		if runs == 0 {
			return 0, "layer not reached", false
		}
		v := a.N
		if bytes {
			v = a.Ns
		}
		return float64(v) / float64(runs), fmt.Sprintf("over %d runs, visits excluded", runs), true
	}
}

func phaseMs(key string) func(t *layerView) (float64, string, bool) {
	return func(t *layerView) (float64, string, bool) {
		runs := t.l.get("runtime").N
		if runs == 0 {
			return 0, "no runs", false
		}
		return float64(t.l.get(key).Ns) / float64(runs) / 1e6, fmt.Sprintf("mean over %d runs", runs), true
	}
}

var layerDefs = []layerDef{
	{"static.load_ms", "ms", false, func(t *layerView) (float64, string, bool) { return perCall(t.l.get("static.load")) }},
	{"static.interp_ms", "ms", false, func(t *layerView) (float64, string, bool) {
		load, lnote, ok1 := perCall(t.l.get("static.load"))
		an, anote, ok2 := perCall(t.l.get("static.analyze"))
		if !ok1 || !ok2 {
			return 0, "layer not reached", false
		}
		return an - load, fmt.Sprintf("Analyze %.1f ms (%s) - Load (%s)", an, anote, lnote), true
	}},
	{"static.funcs", "count", true, exact("static.funcs")},
	{"static.findings", "count", true, exact("static.findings")},
	{"static.unknown", "count", true, exact("static.unknown")},
	{"static.type_errors", "count", false, exact("static.type_errors")},
	{"cooptrans.translate_ms", "ms", false, func(t *layerView) (float64, string, bool) { return perCall(t.l.get("cooptrans.translate")) }},
	{"cooptrans.units", "count", true, exact("cooptrans.units")},
	{"cooptrans.diags", "count", true, exact("cooptrans.diags")},
	{"sched.run_ms", "ms", true, phaseMs("runtime")},
	{"sched.gen_events_per_s", "1/s", true, func(t *layerView) (float64, string, bool) {
		a := t.l.get("runtime.gen")
		return rate(a.Events, a.Ns, "events")
	}},
	{"sched.switches_per_kevent", "1/kevent", true, func(t *layerView) (float64, string, bool) {
		r := ratio{float64(t.l.get("runtime.switches").N), float64(t.l.get("runtime").Events) / 1000, "switches", "kevents"}
		return fromRatio(r)
	}},
	{"sched.direct_handoff_ratio", "ratio", true, func(t *layerView) (float64, string, bool) {
		return fromRatio(ratio{float64(t.l.get("runtime.direct").N), float64(t.l.get("runtime.switches").N), "direct", "switches"})
	}},
	{"sched.elided_parks", "1/run", true, func(t *layerView) (float64, string, bool) {
		return fromRatio(ratio{float64(t.l.get("runtime.elided").N), float64(t.l.get("runtime").N), "elided parks", "runs"})
	}},
	{"sched.loc_miss_ratio", "ratio", true, func(t *layerView) (float64, string, bool) {
		h, m := t.l.get("runtime.loc_hits").N, t.l.get("runtime.loc_misses").N
		return fromRatio(ratio{float64(m), float64(h + m), "misses", "captures"})
	}},
	{"sched.phase_gen_ms", "ms", true, phaseMs("runtime.gen")},
	{"sched.phase_handoff_ms", "ms", true, phaseMs("runtime.handoff")},
	{"sched.phase_analysis_ms", "ms", false, func(t *layerView) (float64, string, bool) {
		v, note, ok := phaseMs("runtime.analysis")(t)
		if ok && v == 0 {
			note = "0: no run has observers attached; the checkers read recorded traces"
		}
		return v, note, ok
	}},
	{"explore.runs", "count", true, exact("explore.runs")},
	{"explore.states", "count", true, exact("explore.states")},
	{"explore.outcomes", "count", true, exact("explore.outcomes")},
	{"explore.engine_ms", "ms", false, func(t *layerView) (float64, string, bool) { return perCall(t.l.get("explore.engine")) }},
	{"explore.bookkeeping_ms", "ms", false, func(t *layerView) (float64, string, bool) {
		a := t.l.get("explore.bookkeeping")
		a.N = t.l.get("explore.engine").N
		return perCall(a)
	}},
	{"explore.engine_runs_per_s", "1/s", true, func(t *layerView) (float64, string, bool) {
		return rate(t.l.get("explore.runs").N, t.l.get("explore.engine").Ns, "runs")
	}},
	{"explore.allocs_per_run", "allocs/run", true, perRun("explore.allocs", "explore.runs", false)},
	{"explore.bytes_per_run", "B/run", true, perRun("explore.allocs", "explore.runs", true)},
	{"dpor.runs", "count", true, exact("dpor.runs")},
	{"dpor.states", "count", true, exact("dpor.states")},
	{"dpor.outcomes", "count", true, exact("dpor.outcomes")},
	{"dpor.engine_ms", "ms", false, func(t *layerView) (float64, string, bool) { return perCall(t.l.get("dpor.engine")) }},
	{"dpor.bookkeeping_ms", "ms", false, func(t *layerView) (float64, string, bool) {
		a := t.l.get("dpor.bookkeeping")
		a.N = t.l.get("dpor.engine").N
		return perCall(a)
	}},
	{"dpor.engine_runs_per_s", "1/s", true, func(t *layerView) (float64, string, bool) {
		return rate(t.l.get("dpor.runs").N, t.l.get("dpor.engine").Ns, "runs")
	}},
	{"dpor.allocs_per_run", "allocs/run", true, perRun("dpor.allocs", "dpor.runs", false)},
	{"core.check_ms", "ms", true, func(t *layerView) (float64, string, bool) { return perCall(t.l.get("core.check")) }},
	{"core.events_per_s", "1/s", true, func(t *layerView) (float64, string, bool) {
		a := t.l.get("core.check")
		return rate(a.Events, a.Ns, "events")
	}},
	{"fused.analyze_ms", "ms", false, func(t *layerView) (float64, string, bool) { return perCall(t.l.get("fused.analyze")) }},
	{"fused.events_per_s", "1/s", true, func(t *layerView) (float64, string, bool) {
		a := t.l.get("fused.analyze")
		return rate(a.Events, a.Ns, "events")
	}},
	{"fused.pass1_ms", "ms", false, func(t *layerView) (float64, string, bool) { return perCall(t.l.get("fused.pass1")) }},
	{"fused.pass2_ms", "ms", false, func(t *layerView) (float64, string, bool) { return perCall(t.l.get("fused.pass2")) }},
	{"yield.infer_ms", "ms", false, func(t *layerView) (float64, string, bool) { return perCall(t.l.get("yield.infer")) }},
	{"yield.rounds", "count", true, exact("yield.rounds")},
	{"yield.sites", "count", true, exact("yield.sites")},
	{"gc.cycles", "1/job", true, func(t *layerView) (float64, string, bool) {
		return fromRatio(ratio{float64(t.l.get("gc").N), float64(t.jobs), "GC cycles", "jobs"})
	}},
	{"gc.pause_ms", "ms/job", true, func(t *layerView) (float64, string, bool) {
		return fromRatio(ratio{float64(t.l.get("gc").Ns) / 1e6, float64(t.jobs), "ms paused", "jobs"})
	}},
	{"bench.trace_overhead", "ratio", true, func(t *layerView) (float64, string, bool) { return fromRatio(t.overhead) }},
}

func perLayer(r *results) []metric {
	traced := p50(r.traced)
	view := &layerView{l: r.tr.layers, counts: r.counts, jobs: len(r.traced.records),
		overhead: ratio{traced, p50(r.plain), "ms traced job_p50", "ms untraced"}}
	var out []metric
	for _, d := range layerDefs {
		v, note, ok := d.value(view)
		out = append(out, metric{name: d.name, unit: d.unit, value: v, ok: ok, note: note})
	}
	return out
}

func p50(ph *phase) float64 {
	var d []float64
	for _, rec := range ph.records {
		d = append(d, ms(rec.dur))
	}
	return median(d)
}

// predictions are the job-time shares by layer (self time) expected
// before measuring, printed beside the measured split.
var predictions = map[string]map[string]string{
	"check":   {"sched.run": "61%", "fused.analyze": "30%", "yield.infer": "9%"},
	"certify": {"core.check": "16%", "explore": "84% with the runs"},
	"hunt":    {"dpor": "most, with the runs"},
	"vet":     {"static.analyze": "~90% (import type-check)", "job": "process start"},
}

func report(w io.Writer, opts options, r *results) error {
	name := opts.workload.name
	fmt.Fprintf(w, "perfbench %s: seed %d (held-out seed for claims: %d), %.0f s, trace %v\n",
		name, opts.seed, heldOutSeed, opts.seconds, opts.traced)
	fmt.Fprintf(w, "env: nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit(opts.root))
	e2e := endToEnd(r)
	fmt.Fprintln(w, "end to end (untraced):")
	printMetrics(w, e2e)
	metrics := map[string]jsonMetric{}
	if !opts.traced {
		for _, m := range e2e {
			if slices.Contains(jsonEndToEnd, m.name) {
				metrics[m.name] = jsonMetric{m.value, m.unit}
			}
		}
	} else {
		layers := perLayer(r)
		fmt.Fprintln(w, "per layer (traced phase):")
		printMetrics(w, layers)
		for i, m := range layers {
			if layerDefs[i].inJSON {
				metrics[m.name] = jsonMetric{m.value, m.unit}
			}
		}
		printSplit(w, name, r)
		fmt.Fprintf(w, "trace: %s (%d recorder events dropped)\n", r.flight, r.dropped)
	}
	for i, p := range r.bench.problems {
		if i == 10 {
			fmt.Fprintf(w, "... %d more problems\n", len(r.bench.problems)-i)
			break
		}
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	line, err := json.Marshal(jsonResult{
		Correct:   r.bench.failed == 0,
		Attempted: r.bench.attempted,
		Failed:    r.bench.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printMetrics(w io.Writer, ms []metric) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, m := range ms {
		if m.ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", m.name, m.value, m.unit, m.note)
		} else {
			fmt.Fprintf(tw, "  %s\tn/a\t%s\t%s\n", m.name, m.unit, m.note)
		}
	}
	tw.Flush()
}

// printSplit prints the traced jobs' time split by layer — self time, so
// an exploration's own share excludes the checks its visits run — beside
// the predicted shares.
func printSplit(w io.Writer, name string, r *results) {
	rows, _ := r.tr.recording().Attribution()
	var jobNs int64
	for _, row := range rows {
		if row.Name == "job" {
			jobNs = row.TotalNs
		}
	}
	jobs := len(r.traced.records)
	fmt.Fprintf(w, "job time by layer (self time over %d traced jobs):\n", jobs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  layer\tcalls\tself ms/job\tshare\tpredicted\n")
	for _, row := range rows {
		pred := predictions[name][row.Name]
		if pred == "" {
			pred = "-"
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.3f\t%.1f%%\t%s\n", row.Name, row.Count,
			float64(row.SelfNs)/float64(jobs)/1e6, 100*float64(row.SelfNs)/float64(jobNs), pred)
	}
	tw.Flush()
	if a := r.tr.layers.get("static.load"); a.N > 0 {
		fmt.Fprintf(w, "  (static.analyze includes a package load: static.load_ms above is that load, timed in a separate process)\n")
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
