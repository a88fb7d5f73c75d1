package static

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// loadedPackage is one type-checked target package.
type loadedPackage struct {
	name  string
	dir   string
	files []*ast.File
	pkg   *types.Package
}

// loader parses and type-checks packages with the standard library only:
// module-local import paths are resolved from source relative to the
// enclosing go.mod, everything else goes through the stdlib source
// importer. Type errors are collected, not fatal — the analyzer degrades
// to "unknown" verdicts where type information is missing, it never
// refuses a package outright.
type loader struct {
	fset    *token.FileSet
	info    *types.Info
	std     *stdImporter
	modRoot string
	modPath string
	cache   map[string]*types.Package
	// declsByObj indexes every function declaration seen anywhere in the
	// module (targets and module imports), so the interpreter can inline
	// helpers across package boundaries.
	declsByObj map[*types.Func]*ast.FuncDecl
	typeErrs   []error
}

// stdImporter is a FileSet and the stdlib source importer that parses
// into it. The source importer caches every package it type-checks, so a
// pair that outlives one loader spares the next loader the whole stdlib
// type-check; it is not safe for concurrent use, so a pair belongs to one
// loader at a time.
type stdImporter struct {
	fset *token.FileSet
	imp  types.Importer
}

// stdImporters hands idle pairs from one loader to the next. A pool rather
// than one process-wide importer: the pool drops idle pairs at GC, so a
// process that is done loading does not keep the stdlib universe resident.
var stdImporters = sync.Pool{New: func() any {
	fset := token.NewFileSet()
	return &stdImporter{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}}

// newLoader borrows a stdlib importer pair; the caller must release it.
func newLoader() *loader {
	std := stdImporters.Get().(*stdImporter)
	return &loader{
		fset: std.fset,
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
		std:        std,
		cache:      map[string]*types.Package{},
		declsByObj: map[*types.Func]*ast.FuncDecl{},
	}
}

// release returns the loader's stdlib importer pair to the pool. Results
// already loaded stay valid: the FileSet is safe for concurrent use by the
// next borrower, and imported packages are never mutated after their check.
func (l *loader) release() {
	stdImporters.Put(l.std)
	l.std = nil
}

// findModule walks up from dir to the enclosing go.mod and records the
// module root and path. Outside a module the loader still works; only
// module-local imports become unresolvable.
func (l *loader) findModule(dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	for cur := abs; ; cur = filepath.Dir(cur) {
		data, err := os.ReadFile(filepath.Join(cur, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					l.modRoot = cur
					l.modPath = strings.TrimSpace(rest)
					return
				}
			}
			return
		}
		if filepath.Dir(cur) == cur {
			return
		}
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	var pkg *types.Package
	var err error
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
		pkg, _, err = l.check(path, dir, false)
	} else {
		pkg, err = l.std.imp.Import(path)
	}
	if err != nil {
		// Record a placeholder so references through the import degrade to
		// missing type info instead of cascading errors.
		l.typeErrs = append(l.typeErrs, fmt.Errorf("import %q: %w", path, err))
		pkg = types.NewPackage(path, filepath.Base(path))
	}
	l.cache[path] = pkg
	return pkg, nil
}

// check parses and type-checks the package in dir. Only the files the go
// tool would build for the host platform are parsed, so per-architecture
// variants of one declaration do not collide. Target packages keep their
// file list for analysis; imported module packages are indexed for
// declaration lookup only.
func (l *loader) check(importPath, dir string, target bool) (*types.Package, []*ast.File, error) {
	pkgs, err := parser.ParseDir(l.fset, dir, func(fi os.FileInfo) bool {
		if strings.HasSuffix(fi.Name(), "_test.go") {
			return false
		}
		// A file MatchFile cannot read is kept so the parser reports it.
		ok, err := build.Default.MatchFile(dir, fi.Name())
		return ok || err != nil
	}, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for name := range pkgs {
		if !strings.HasSuffix(name, "_test") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("static: no Go packages in %s", dir)
	}
	sort.Strings(names)
	// One buildable package per directory in this module; if a directory
	// somehow holds several, analyze them all under one universe.
	var allFiles []*ast.File
	var first *types.Package
	for _, name := range names {
		var files []*ast.File
		var fnames []string
		for fname := range pkgs[name].Files {
			fnames = append(fnames, fname)
		}
		sort.Strings(fnames)
		for _, fname := range fnames {
			files = append(files, pkgs[name].Files[fname])
		}
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { l.typeErrs = append(l.typeErrs, err) },
		}
		pkg, err := conf.Check(importPath, l.fset, files, l.info)
		if err != nil && pkg == nil {
			return nil, nil, err
		}
		l.indexDecls(files)
		if first == nil {
			first = pkg
		}
		allFiles = append(allFiles, files...)
	}
	return first, allFiles, nil
}

// indexDecls records every FuncDecl's types.Func for cross-package inlining.
func (l *loader) indexDecls(files []*ast.File) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if obj, ok := l.info.Defs[fd.Name].(*types.Func); ok {
				l.declsByObj[obj] = fd
			}
		}
	}
}

// loadDir loads one target directory as a package universe member.
func (l *loader) loadDir(dir string) (*loadedPackage, error) {
	if l.modRoot == "" {
		l.findModule(dir)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importPath := "static-target/" + filepath.Base(abs)
	if l.modRoot != "" {
		if rel, err := filepath.Rel(l.modRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
			importPath = l.modPath
			if rel != "." {
				importPath += "/" + filepath.ToSlash(rel)
			}
		}
	}
	pkg, files, err := l.check(importPath, dir, true)
	if err != nil {
		return nil, fmt.Errorf("static: loading %s: %w", dir, err)
	}
	if cached, ok := l.cache[importPath]; ok && cached != pkg {
		// Keep the richer result.
		l.cache[importPath] = pkg
	} else {
		l.cache[importPath] = pkg
	}
	name := ""
	if pkg != nil {
		name = pkg.Name()
	}
	return &loadedPackage{name: name, dir: dir, files: files, pkg: pkg}, nil
}

// trimLoc shortens a file path to its last two segments, matching the
// virtual runtime's location format (sched.trimPath), so static findings
// and dynamic trace locations compare textually.
func trimLoc(file string) string {
	file = filepath.ToSlash(file)
	i := strings.LastIndexByte(file, '/')
	if i < 0 {
		return file
	}
	j := strings.LastIndexByte(file[:i], '/')
	return file[j+1:]
}

// posLoc renders a token.Pos in the runtime's "dir/file.go:line" format.
func (a *analysis) posLoc(pos token.Pos) string {
	p := a.fset.Position(pos)
	if !p.IsValid() {
		return ""
	}
	return fmt.Sprintf("%s:%d", trimLoc(p.Filename), p.Line)
}
