package cooptrans

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/static"
)

// renderTranslation is the translation of dir as JSON plus every unit's
// emitted Go source.
func renderTranslation(dir string) (string, error) {
	tr, err := Translate(dir)
	if err != nil {
		return "", err
	}
	out, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return "", err
	}
	for _, u := range tr.Units {
		out = append(out, u.Emit()...)
	}
	return string(out), nil
}

// renderAnalysis is the static report on dir in text and JSON form.
func renderAnalysis(dir string) (string, error) {
	rep, err := static.Analyze([]string{dir}, static.Config{Registry: obs.NewRegistry()})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		return "", err
	}
	if err := rep.WriteJSON(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// TestTranslateThenAnalyzeMatchesFreshProcess: cooptrans -run and the
// three-way harness load one package twice in one process, translating
// and then analyzing it, and the second load reuses the first one's
// stdlib importer and FileSet. Each result must be byte-identical to what
// a fresh process computes.
//
// The test re-executes its own binary for the fresh-process side: with
// the positional arguments "translate|analyze <dir> <out>" it writes that
// one result and returns.
func TestTranslateThenAnalyzeMatchesFreshProcess(t *testing.T) {
	if flag.NArg() == 3 {
		render := renderAnalysis
		if flag.Arg(0) == "translate" {
			render = renderTranslation
		}
		out, err := render(flag.Arg(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flag.Arg(2), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	const dir = "testdata/corpus/racybank"
	fresh := func(mode string) string {
		out := filepath.Join(t.TempDir(), mode)
		cmd := exec.Command(os.Args[0], "-test.run=^TestTranslateThenAnalyzeMatchesFreshProcess$", mode, dir, out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("fresh %s process: %v\n%s", mode, err, msg)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	gotTr, err := renderTranslation(dir)
	if err != nil {
		t.Fatal(err)
	}
	gotAn, err := renderAnalysis(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh("translate"); gotTr != want {
		t.Errorf("translation differs from a fresh process:\n--- fresh\n%s\n--- in process\n%s", want, gotTr)
	}
	if want := fresh("analyze"); gotAn != want {
		t.Errorf("analysis after translation differs from a fresh process:\n--- fresh\n%s\n--- in process\n%s", want, gotAn)
	}
}
