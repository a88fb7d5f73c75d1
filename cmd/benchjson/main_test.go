package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

const baseText = `pkg: repro/internal/sched
BenchmarkTraceGen    	    8244	    143470 ns/op	  22429850 events/s
BenchmarkHandoff     	    3313	    302881 ns/op
`

func mustParse(t *testing.T, text string) []Result {
	t.Helper()
	rs, err := parseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestCompareFlagsMissingBaseline(t *testing.T) {
	base := mustParse(t, baseText)
	// Handoff-2 is Handoff run at GOMAXPROCS=2: the same benchmark.
	in := mustParse(t, strings.Replace(baseText, "BenchmarkHandoff ", "BenchmarkHandoff-2 ", 1)+
		"BenchmarkChannelWorkloads-2 	 100	 5000 ns/op\n")
	regressions, unbaselined := compare(io.Discard, base, in, 0.10)
	if len(regressions) != 0 {
		t.Errorf("regressions = %v, want none", regressions)
	}
	if want := []string{"repro/internal/sched/BenchmarkChannelWorkloads"}; !reflect.DeepEqual(unbaselined, want) {
		t.Errorf("unbaselined = %v, want %v", unbaselined, want)
	}
}

func TestCompareRegressionAndRemovedRow(t *testing.T) {
	base := mustParse(t, baseText)
	// TraceGen loses 20% events/s; Handoff is absent from the input,
	// which is listed but does not fail the gate.
	in := mustParse(t, "pkg: repro/internal/sched\nBenchmarkTraceGen \t 8244\t 143470 ns/op\t 17943880 events/s\n")
	regressions, unbaselined := compare(io.Discard, base, in, 0.10)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "BenchmarkTraceGen") {
		t.Errorf("regressions = %v, want the TraceGen line", regressions)
	}
	if len(unbaselined) != 0 {
		t.Errorf("unbaselined = %v, want none", unbaselined)
	}
}
