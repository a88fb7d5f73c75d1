package static

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

func analyze(t *testing.T, dirs ...string) *Report {
	t.Helper()
	rep, err := Analyze(dirs, Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("Analyze(%v): %v", dirs, err)
	}
	return rep
}

func mustFunc(t *testing.T, rep *Report, name string) FuncReport {
	t.Helper()
	f, ok := rep.Func(name)
	if !ok {
		var names []string
		for _, fr := range rep.Funcs {
			names = append(names, fr.Name)
		}
		t.Fatalf("no report for %q; have %v", name, names)
	}
	return f
}

func TestDSLVerdicts(t *testing.T) {
	rep := analyze(t, "testdata/dsl")
	cases := map[string]Verdict{
		"dsl.bump":         VerdictYieldFree,
		"dsl.racer":        VerdictNeedsYields,
		"dsl.polite":       VerdictCooperable,
		"dsl.Weird":        VerdictUnknown,
		"dsl.WithLockHeld": VerdictYieldFree,
		"dsl.BuildGuarded": VerdictCooperable, // forks and joins are boundaries
	}
	for name, want := range cases {
		if got := mustFunc(t, rep, name).Verdict; got != want {
			t.Errorf("%s: verdict %v, want %v", name, got, want)
		}
	}
}

// TestDSLPackageLoadsWithoutWarnings: a DSL package imports the virtual
// runtime, whose per-architecture files declare the same method; the
// loader must honour build constraints and type-check it cleanly.
func TestDSLPackageLoadsWithoutWarnings(t *testing.T) {
	if rep := analyze(t, "testdata/dsl"); len(rep.Warnings) > 0 {
		t.Errorf("warnings for a well-typed DSL package: %v", rep.Warnings)
	}
}

func TestRacyFindingPointsAtSecondWrite(t *testing.T) {
	rep := analyze(t, "testdata/dsl")
	f := mustFunc(t, rep, "dsl.racer")
	if len(f.Findings) == 0 {
		t.Fatal("racer: no findings")
	}
	for _, fd := range f.Findings {
		if !strings.HasPrefix(fd.Loc, "dsl/dsl.go:") {
			t.Errorf("finding location %q not in dsl/dsl.go (dynamic-format mismatch)", fd.Loc)
		}
		if fd.Mover != "non" && fd.Mover != "right" {
			t.Errorf("violation mover %q, want non or right", fd.Mover)
		}
	}
}

func TestGuardedProgramHasNoFindings(t *testing.T) {
	rep := analyze(t, "testdata/dsl")
	for _, name := range []string{"dsl.bump", "dsl.WithLockHeld", "dsl.BuildGuarded"} {
		if f := mustFunc(t, rep, name); len(f.Findings) > 0 {
			t.Errorf("%s: unexpected findings %+v", name, f.Findings)
		}
	}
}

func TestPlainGoVerdicts(t *testing.T) {
	rep := analyze(t, "testdata/plaingo")
	if got := mustFunc(t, rep, "plaingo.Counter.Inc").Verdict; got != VerdictYieldFree {
		t.Errorf("Counter.Inc: %v, want %v", got, VerdictYieldFree)
	}
	if got := mustFunc(t, rep, "plaingo.AddTotal").Verdict; got != VerdictNeedsYields {
		t.Errorf("AddTotal: %v, want %v", got, VerdictNeedsYields)
	}
}

// The analysis must be deterministic: two runs over the same universe
// produce byte-identical JSON.
func TestReportDeterministic(t *testing.T) {
	var out [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		rep := analyze(t, "testdata/dsl", "testdata/plaingo")
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if out[0].String() != out[1].String() {
		t.Errorf("nondeterministic report:\n--- run 1\n%s\n--- run 2\n%s", out[0].String(), out[1].String())
	}
}

func TestMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := Analyze([]string{"testdata/dsl"}, Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("static.funcs").Load(); got != int64(rep.Stats.Funcs) {
		t.Errorf("static.funcs = %d, want %d", got, rep.Stats.Funcs)
	}
	if got := reg.Counter("static.yieldfree").Load(); got != int64(rep.Stats.YieldFree) {
		t.Errorf("static.yieldfree = %d, want %d", got, rep.Stats.YieldFree)
	}
	if got := reg.Counter("static.findings").Load(); got != int64(rep.Stats.Findings) {
		t.Errorf("static.findings = %d, want %d", got, rep.Stats.Findings)
	}
	if rep.Stats.Funcs == 0 {
		t.Error("no functions analyzed")
	}
}

// Analyzing the real workload corpus must complete without error and
// never produce an unsound-looking empty result.
func TestAnalyzeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the stdlib from source")
	}
	rep := analyze(t, "../workloads")
	if rep.Stats.Funcs == 0 {
		t.Fatal("no functions found in internal/workloads")
	}
	f := mustFunc(t, rep, "workloads.Counter.Add")
	if f.Verdict == VerdictYieldFree || f.Verdict == VerdictCooperable {
		if len(f.Findings) > 0 {
			t.Errorf("Counter.Add: cooperable verdict with findings %+v", f.Findings)
		}
	}
}
