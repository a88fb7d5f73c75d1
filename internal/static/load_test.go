package static

import (
	"bytes"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestDSLImportClosureHasNoNetwork: the loader type-checks a sched-DSL
// program's whole import closure from source on every run, so the virtual
// runtime must not drag the network stack into it. The -metrics-addr
// endpoint lives in its own leaf package (obs/obshttp) for this reason.
func TestDSLImportClosureHasNoNetwork(t *testing.T) {
	u, err := Load([]string{"../../examples/quickstart"})
	if err != nil {
		t.Fatal(err)
	}
	forbidden := func(path string) bool {
		return path == "net" || strings.HasPrefix(path, "net/") || path == "expvar" ||
			path == "crypto" || strings.HasPrefix(path, "crypto/")
	}
	// Breadth-first, remembering who imported each package first, so a
	// failure names a shortest import chain.
	root := u.Pkgs[0].Pkg
	via := map[*types.Package]*types.Package{root: nil}
	queue := []*types.Package{root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if forbidden(p.Path()) {
			var chain []string
			for q := p; q != nil; q = via[q] {
				chain = append(chain, q.Path())
			}
			slices.Reverse(chain)
			t.Errorf("%s is reachable: %s", p.Path(), strings.Join(chain, " -> "))
			continue
		}
		for _, imp := range p.Imports() {
			if _, seen := via[imp]; !seen {
				via[imp] = p
				queue = append(queue, imp)
			}
		}
	}
	if len(via) < 10 {
		t.Fatalf("walked only %d packages; the import graph is not populated", len(via))
	}
}

// renderReport analyzes dirs and returns the text and JSON reports.
func renderReport(dirs ...string) (string, error) {
	rep, err := Analyze(dirs, Config{Registry: obs.NewRegistry()})
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

// TestAnalyzeConcurrentMatchesSequential: loaders running at once each
// borrow their own stdlib importer, and loaders running one after another
// share one, yet every report is byte-identical either way.
func TestAnalyzeConcurrentMatchesSequential(t *testing.T) {
	dirs := []string{"testdata/dsl", "testdata/plaingo", "testdata/rwmutex", "diffprogs"}
	want := make([]string, len(dirs))
	for i, d := range dirs {
		out, err := renderReport(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	got := make([]string, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, d := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = renderReport(d)
		}()
	}
	wg.Wait()
	for i, d := range dirs {
		if errs[i] != nil {
			t.Errorf("%s: %v", d, errs[i])
		} else if got[i] != want[i] {
			t.Errorf("%s: concurrent report differs from sequential:\n--- sequential\n%s\n--- concurrent\n%s", d, want[i], got[i])
		}
	}
}

// TestUnresolvableImportWarnsEveryLoader: a failed import is not cached by
// the shared stdlib importer, so every loader that hits it reports it.
func TestUnresolvableImportWarnsEveryLoader(t *testing.T) {
	// The resolver may ask the go command about the path; keep it local.
	// A path without a dot is never looked up in a module proxy anyway.
	t.Setenv("GOPROXY", "off")
	dir := t.TempDir()
	src := "package lost\n\nimport \"nosuchpkg/lost\"\n\nvar V = lost.X\n"
	if err := os.WriteFile(filepath.Join(dir, "lost.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	hasImportWarning := func(ws []string) bool {
		for _, w := range ws {
			if strings.Contains(w, `import "nosuchpkg/lost"`) {
				return true
			}
		}
		return false
	}
	for i := 0; i < 2; i++ {
		rep := analyze(t, dir)
		if !hasImportWarning(rep.Warnings) {
			t.Errorf("Analyze #%d: warnings %v lack the unresolvable import", i+1, rep.Warnings)
		}
		u, err := Load([]string{dir})
		if err != nil {
			t.Fatal(err)
		}
		if !hasImportWarning(u.Warnings) {
			t.Errorf("Load #%d: warnings %v lack the unresolvable import", i+1, u.Warnings)
		}
	}
}
