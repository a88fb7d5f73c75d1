package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// vet job re-executes itself as a child.
func TestMain(m *testing.M) {
	if kind := os.Getenv(childEnv); kind != "" {
		os.Exit(childMain(kind, os.Stdout))
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {78, 87, true},
		{100, 90, true}, {199, 94, true}, {1000, 99, true}, {20000, 99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && float64(tc.n)*(100-got)/100 < minBeyond-1e-9 {
			t.Errorf("tailPercentile(%d) = p%v leaves fewer than %d samples beyond it", tc.n, got, minBeyond)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(s, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 of 1..4 = %v, want 3.7", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestRatioPrintsBase(t *testing.T) {
	for _, tc := range []struct {
		r    ratio
		want string
	}{
		{ratio{0, 976, "failed", "jobs"}, "0 (0 failed of 976 jobs)"},
		{ratio{3, 12, "direct", "switches"}, "0.25 (3 direct of 12 switches)"},
		{ratio{132.9, 119.8, "ms traced", "ms untraced"}, "1.109 (132.9 ms traced of 119.8 ms untraced)"},
		{ratio{5, 0, "GC cycles", "jobs"}, "0 (5 GC cycles of 0 jobs)"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("%#v prints %q, want %q", tc.r, got, tc.want)
		}
	}
}

// Metric names and units follow the benchmark contract: a name is 1-64
// letters, digits, '_', '.', '-', starting with a letter or digit; a unit
// is 1-16 letters, digits, '_', '/', '%', '.', '-'.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestNameGrammar(t *testing.T) {
	for _, s := range []string{"job_p50_ms", "static.load_ms", "9x", "a-b.c_d"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", strings.Repeat("x", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "1/s", "%", "allocs/run", "B/run"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metrics the
// code emits: same names, units and order, every name well formed.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var workloads []string
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	var code []string
	for _, w := range allWorkloads {
		code = append(code, w.name)
	}
	if strings.Join(workloads, " ") != strings.Join(code, " ") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", workloads, code)
	}
	units := map[string]string{"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "events_per_s": "1/s",
		"schedules_per_s": "1/s", "first_bug_ms": "ms", "peak_rss_mb": "MB"}
	if len(bf.EndToEnd) != len(jsonEndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(bf.EndToEnd), len(jsonEndToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != jsonEndToEnd[i] || m.Unit != units[m.Name] {
			t.Errorf("end_to_end[%d] = %s %s; code has %s %s", i, m.Name, m.Unit, jsonEndToEnd[i], units[jsonEndToEnd[i]])
		}
	}
	var layers []layerDef
	for _, d := range layerDefs {
		if d.inJSON {
			layers = append(layers, d)
		}
	}
	if len(bf.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(bf.PerLayer), len(layers))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layers[i].name || m.Unit != layers[i].unit {
			t.Errorf("per_layer[%d] = %s %s; code has %s %s", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
	seen := map[string]bool{}
	for _, d := range layerDefs {
		if !validName(d.name) || !validUnit(d.unit) || seen[d.name] {
			t.Errorf("bad or duplicate per-layer metric %q %q", d.name, d.unit)
		}
		seen[d.name] = true
	}
	for name, unit := range units {
		if !validName(name) || !validUnit(unit) || seen[name] {
			t.Errorf("bad or duplicate end-to-end metric %q %q", name, unit)
		}
		seen[name] = true
	}
}

// TestRepeatMismatchFails: a job whose counts change between runs with
// the same seed is a failed job.
func TestRepeatMismatchFails(t *testing.T) {
	n := 0
	j := job{key: "fake", run: func(jc *jobCtx) { n++; jc.count("runs", n) }}
	b := &bench{seen: map[string][]count{}}
	if rec := b.run(j, nil); rec.failed {
		t.Fatal("first run failed")
	}
	if rec := b.run(j, nil); !rec.failed || b.failed != 1 || b.attempted != 2 {
		t.Fatalf("changed counts: failed=%v, %d of %d failed", rec.failed, b.failed, b.attempted)
	}
}

// TestSmoke sets up every workload and runs its first job once untraced
// and once traced, with every known-answer check on.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			jobs, err := w.setup(env{root: root, seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			b := &bench{seen: map[string][]count{}}
			tr := newTracer()
			for _, traced := range []*tracer{nil, tr} {
				rec := b.run(jobs[0], traced)
				if rec.failed || rec.events == 0 || rec.schedules == 0 {
					t.Fatalf("%s: %+v, problems %v", jobs[0].key, rec, b.problems)
				}
			}
			if len(tr.events) == 0 || len(tr.layers) == 0 {
				t.Errorf("traced run recorded %d spans, %d layers", len(tr.events), len(tr.layers))
			}
		})
	}
}

// TestOutputContract runs the whole benchmark briefly, untraced and
// traced, and checks the last line against BENCHMARK.json.
func TestOutputContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bf := readBenchmarkFile(t)
	for _, tc := range []struct {
		trace string
		want  []struct{ Name, Unit, Better string }
	}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
		var out, errb bytes.Buffer
		code := benchMain([]string{"--workload", "certify", "--seed", "3", "--seconds", "0.01", "--trace", tc.trace}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: %+v", tc.trace, res)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", tc.trace, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", tc.trace, m.Name, got, m.Unit)
			}
		}
	}
}
