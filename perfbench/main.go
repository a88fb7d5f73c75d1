// Command perfbench is the repository benchmark. It runs one of four
// closed-loop workloads — check, certify, hunt, vet — in which a single
// client runs jobs back to back, each job one user-level request ending
// in a verdict that is checked against a known answer. It times each
// layer from outside, by wrapping the calls the job makes into the
// public functions of internal/static, internal/cooptrans, internal/sched,
// internal/core, internal/harness and internal/yield.
//
// Run it from the repository root (perfbench/run.sh builds it there):
//
//	perfbench --workload check --seed 1 --seconds 25 --trace 0
//
// The last line of its output is one JSON object with the verdict and the
// metrics: the end-to-end metrics untraced, the per-layer metrics with
// --trace 1, which adds a separate traced phase and writes its spans as
// flight-recorder Perfetto JSON under .bench_build/perfbench.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs/flight"
)

// heldOutSeed is kept out of tuning: a claimed gain must also hold on it.
const heldOutSeed = 7919

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

func main() {
	if kind := os.Getenv(childEnv); kind != "" {
		os.Exit(childMain(kind, os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     int64
	seconds  float64
	traced   bool
	root     string
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "check | certify | hunt | vet")
	seed := fs.Int64("seed", 1, "workload seed: gen draws, random schedules and job order derive from it")
	seconds := fs.Float64("seconds", 25, "measure whole rounds of jobs for about this many seconds")
	traceFlag := fs.Int("trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (check | certify | hunt | vet)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	opts := options{workload: w, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, root: root}
	res, err := runBench(opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, opts, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module repro" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the repository: no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// record is one completed job.
type record struct {
	dur, excluded     time.Duration
	events, schedules int64
	firstBug          time.Duration
	buggy, failed     bool
}

// phase is a stretch of whole rounds measured under one tracing setting.
type phase struct {
	records []record
	wall    time.Duration
}

// bench is one run's state.
type bench struct {
	jobs      []job
	order     *rand.Rand
	seen      map[string][]count
	attempted int
	failed    int
	problems  []string
}

// results is everything report prints.
type results struct {
	setup   []float64
	plain   *phase
	traced  *phase
	tr      *tracer
	counts  map[string]int64
	bench   *bench
	rssMB   float64
	flight  string
	dropped int64
}

func runBench(opts options) (*results, error) {
	e := env{root: opts.root, seed: opts.seed}
	b := &bench{order: e.rng(), seen: map[string][]count{}}
	res := &results{bench: b}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		jobs, err := opts.workload.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", opts.workload.name, err)
		}
		// Warm up on the first job, so caches fill and lazy set-up ends
		// before timing; its counts seed the exact-repeat check.
		b.run(jobs[0], nil)
		res.setup = append(res.setup, time.Since(t0).Seconds())
		b.jobs = jobs
	}
	budget := time.Duration(opts.seconds * float64(time.Second))
	if opts.traced {
		budget /= 2
	}
	// Set-up garbage is not the jobs' memory: return it to the OS and
	// restart the peak-RSS mark, so peak_rss_mb covers the measured jobs.
	debug.FreeOSMemory()
	hwmReset := resetPeakRSS()
	res.plain = b.measure(budget, nil)
	res.rssMB = peakRSSMB(hwmReset)
	if opts.traced {
		rec := flight.Enable(flight.Options{})
		res.tr = newTracer()
		res.traced = b.measure(budget, res.tr)
		flight.Disable()
		merged := flight.Merge(rec.Snapshot(), res.tr.recording())
		res.dropped = merged.Dropped
		dir := filepath.Join(opts.root, ".bench_build", "perfbench")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		res.flight = filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", opts.workload.name, opts.seed))
		if err := flight.WriteFile(res.flight, merged); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
	}
	res.counts = b.roundCounts()
	return res, nil
}

// measure runs whole rounds — every job once, in a seed-derived order —
// and stops at the round boundary nearest to budget, at least one round.
func (b *bench) measure(budget time.Duration, tr *tracer) *phase {
	ph := &phase{}
	start := time.Now()
	var excluded time.Duration
	for {
		roundStart := time.Now()
		for _, i := range b.order.Perm(len(b.jobs)) {
			rec := b.run(b.jobs[i], tr)
			excluded += rec.excluded
			ph.records = append(ph.records, rec)
		}
		if budget-time.Since(start) < time.Since(roundStart)/2 {
			break
		}
	}
	ph.wall = time.Since(start) - excluded
	return ph
}

// run executes one job and checks its known answers and exact counts.
// Each job starts on a collected heap, as each CLI invocation starts a
// fresh process, so no job pays for its predecessor's garbage. That
// collection and, traced, the job's probe run outside the job's clock.
func (b *bench) run(j job, tr *tracer) record {
	var problems []string
	t0 := time.Now()
	runtime.GC()
	if tr != nil && j.probe != nil {
		if err := j.probe(tr); err != nil {
			problems = append(problems, err.Error())
		}
	}
	var snap procSnap
	if tr != nil {
		snap = snapProc()
	}
	excluded := time.Since(t0)
	jc := newJobCtx(tr)
	var span open
	if tr != nil {
		span = tr.begin(catJob, "job", 0, 0)
		jc.jobSpan = span.id
	}
	j.run(jc)
	dur := time.Since(jc.start)
	if tr != nil {
		tr.end(span)
		tr.layers.addProcDelta(snap)
	}
	problems = append(problems, jc.res.problems...)
	if prev, ok := b.seen[j.key]; !ok {
		b.seen[j.key] = jc.res.counts
	} else if !slices.Equal(prev, jc.res.counts) {
		problems = append(problems, fmt.Sprintf("%s: counts changed on repeat: %v, then %v", j.key, prev, jc.res.counts))
	}
	b.attempted++
	if len(problems) > 0 {
		b.failed++
		b.problems = append(b.problems, problems...)
	}
	return record{dur: dur, excluded: excluded, events: jc.res.events, schedules: jc.res.schedules,
		firstBug: jc.res.firstBug, buggy: j.buggy, failed: len(problems) > 0}
}

// roundCounts sums every job's exact counts: the counts of one round.
func (b *bench) roundCounts() map[string]int64 {
	out := map[string]int64{}
	for _, j := range b.jobs {
		for _, c := range b.seen[j.key] {
			out[c.Name] += c.V
		}
	}
	return out
}

// resetPeakRSS restarts this process's peak-RSS mark (Linux
// /proc/self/clear_refs); false where that is unavailable.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the larger of this process's peak resident set since
// resetPeakRSS (or since start, when the reset failed) and that of its
// largest child.
func peakRSSMB(sinceReset bool) float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // zero on failure: reported as 0 MB
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	peakKB := self.Maxrss // Linux reports KiB
	if sinceReset {
		peakKB = vmHWM()
	}
	return float64(max(peakKB, kids.Maxrss)) / 1024
}

// vmHWM reads the peak resident set, in KiB, from /proc/self/status.
func vmHWM() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// commit names the checked-out commit, read from .git without running
// git; a checkout without .git reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
