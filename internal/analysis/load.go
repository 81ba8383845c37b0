// Package analysis is a from-scratch static-analysis driver for this
// repository, built only on the standard library (go/parser, go/ast,
// go/types, go/token, go/importer). It loads every package in the module,
// type-checks them, and runs a suite of repo-specific passes that guard the
// invariants the paper's evaluation depends on: deterministic canonical
// output, checked errors, the internal import DAG, context threading, and
// concurrency hygiene. cmd/rpvet is the command-line front end;
// scripts/check.sh wires it into the repo gate next to go vet and the
// race-enabled tests.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	// PkgPath is the full import path.
	PkgPath string
	// Rel is the import path relative to the module root: "" for the root
	// package, "internal/core", "cmd/rpmine", ... The passes scope their
	// rules on Rel so they apply unchanged to fixture modules in tests.
	Rel string
	// Dir is the absolute directory the package was loaded from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks the packages of one module. Stdlib imports
// are resolved through go/importer's source importer; module-internal
// imports are resolved by the loader itself, so no toolchain export data
// or third-party package driver is needed.
//
// Loading happens in two phases: the requested directories and their
// module-internal import closure are parsed (cheap), the import graph is
// topologically ordered, and then packages type-check generation by
// generation — every package of one generation depends only on earlier
// generations, so the packages within a generation can check concurrently.
// Workers bounds that concurrency; 1 reproduces the strictly sequential
// topological order. Either way the resulting type information is
// identical, which is what lets the driver promise byte-identical output
// regardless of parallelism.
type Loader struct {
	Fset    *token.FileSet
	ModPath string
	ModDir  string
	// Workers bounds how many packages type-check concurrently. Zero or
	// negative means GOMAXPROCS.
	Workers int

	std   types.Importer
	stdMu sync.Mutex // the source importer is not safe for concurrent use

	mu    sync.Mutex
	pkgs  map[string]*Package
	nodes map[string]*loadNode
}

// loadNode is one parsed-but-not-yet-type-checked package of the closure.
type loadNode struct {
	pkgPath string
	rel     string
	dir     string
	files   []*ast.File
	imports []string // module-internal import paths, sorted
}

// NewLoader prepares a loader for the module rooted at modDir (the
// directory holding go.mod).
func NewLoader(modDir string) (*Loader, error) {
	abs, err := filepath.Abs(modDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModDir:  abs,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		nodes:   make(map[string]*loadNode),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// a go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// ModuleDirs lists every package directory of the module rooted at modDir:
// each directory containing non-test .go files. testdata, hidden and
// underscore directories are skipped, as the go tool does, and a nested
// go.mod starts a different module that is its own analysis unit.
func ModuleDirs(modDir string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(modDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != modDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != modDir {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

// LoadDirs loads the packages in the given directories, which must sit
// inside the module, plus their module-internal import closure. The result
// holds only the requested packages, sorted by import path.
func (l *Loader) LoadDirs(dirs []string) ([]*Package, error) {
	var roots []string
	for _, dir := range dirs {
		pkgPath, err := l.dirToPkgPath(dir)
		if err != nil {
			return nil, err
		}
		roots = append(roots, pkgPath)
	}
	if err := l.loadClosure(roots); err != nil {
		return nil, err
	}
	var out []*Package
	seen := make(map[string]bool)
	l.mu.Lock()
	for _, pkgPath := range roots {
		if !seen[pkgPath] {
			seen[pkgPath] = true
			out = append(out, l.pkgs[pkgPath])
		}
	}
	l.mu.Unlock()
	slices.SortFunc(out, func(a, b *Package) int { return cmp.Compare(a.PkgPath, b.PkgPath) })
	return out, nil
}

// dirToPkgPath maps a directory inside the module to its import path.
func (l *Loader) dirToPkgPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModDir)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// loadClosure parses roots and their module-internal import closure,
// orders the graph, and type-checks every package not yet checked.
func (l *Loader) loadClosure(roots []string) error {
	// Phase 1: parse the closure breadth-first. Parsing is cheap compared
	// to type-checking, so this phase stays sequential and deterministic.
	queue := slices.Clone(roots)
	var closure []*loadNode
	enqueued := make(map[string]bool)
	for _, p := range queue {
		enqueued[p] = true
	}
	for len(queue) > 0 {
		pkgPath := queue[0]
		queue = queue[1:]
		l.mu.Lock()
		if _, done := l.pkgs[pkgPath]; done {
			l.mu.Unlock()
			continue
		}
		n, ok := l.nodes[pkgPath]
		l.mu.Unlock()
		if !ok {
			var err error
			n, err = l.parseNode(pkgPath)
			if err != nil {
				return err
			}
			l.mu.Lock()
			l.nodes[pkgPath] = n
			l.mu.Unlock()
		}
		closure = append(closure, n)
		for _, imp := range n.imports {
			if !enqueued[imp] {
				enqueued[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	if len(closure) == 0 {
		return nil
	}

	// Phase 2: topological generations. Generation k holds the packages
	// whose unchecked dependencies all sit in generations < k; packages
	// within one generation are independent and may check concurrently.
	gens, err := l.generations(closure)
	if err != nil {
		return err
	}

	// Phase 3: type-check generation by generation.
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, gen := range gens {
		if workers == 1 || len(gen) == 1 {
			for _, n := range gen {
				if err := l.check(n); err != nil {
					return err
				}
			}
			continue
		}
		sem := make(chan struct{}, workers)
		errs := make([]error, len(gen))
		var wg sync.WaitGroup
		for i, n := range gen {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, n *loadNode) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[i] = l.check(n)
			}(i, n)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// generations orders the unchecked closure into dependency generations and
// reports import cycles.
func (l *Loader) generations(closure []*loadNode) ([][]*loadNode, error) {
	pending := make(map[string]int, len(closure))
	inClosure := make(map[string]*loadNode, len(closure))
	for _, n := range closure {
		inClosure[n.pkgPath] = n
	}
	for _, n := range closure {
		for _, imp := range n.imports {
			if _, ok := inClosure[imp]; ok {
				pending[n.pkgPath]++
			}
		}
	}
	dependents := make(map[string][]*loadNode)
	for _, n := range closure {
		for _, imp := range n.imports {
			if _, ok := inClosure[imp]; ok {
				dependents[imp] = append(dependents[imp], n)
			}
		}
	}
	var gens [][]*loadNode
	current := make([]*loadNode, 0, len(closure))
	for _, n := range closure {
		if pending[n.pkgPath] == 0 {
			current = append(current, n)
		}
	}
	placed := 0
	for len(current) > 0 {
		slices.SortFunc(current, func(a, b *loadNode) int { return cmp.Compare(a.pkgPath, b.pkgPath) })
		gens = append(gens, current)
		placed += len(current)
		var next []*loadNode
		for _, n := range current {
			for _, d := range dependents[n.pkgPath] {
				pending[d.pkgPath]--
				if pending[d.pkgPath] == 0 {
					next = append(next, d)
				}
			}
		}
		current = next
	}
	if placed != len(closure) {
		var stuck []string
		for _, n := range closure {
			if pending[n.pkgPath] > 0 {
				stuck = append(stuck, n.pkgPath)
			}
		}
		slices.Sort(stuck)
		return nil, fmt.Errorf("analysis: import cycle through %s", strings.Join(stuck, ", "))
	}
	return gens, nil
}

// parseNode reads and parses one package directory.
func (l *Loader) parseNode(pkgPath string) (*loadNode, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, l.ModPath), "/")
	dir := filepath.Join(l.ModDir, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", pkgPath, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if !fileSelected(dir, name) {
			continue
		}
		names = append(names, name)
	}
	slices.Sort(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	n := &loadNode{pkgPath: pkgPath, rel: rel, dir: dir}
	seen := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		n.files = append(n.files, f)
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if (path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")) && !seen[path] {
				seen[path] = true
				n.imports = append(n.imports, path)
			}
		}
	}
	slices.Sort(n.imports)
	return n, nil
}

// fileSelected reports whether a Go file belongs to the host platform's
// build: its //go:build constraint (if any) and GOOS/GOARCH filename
// suffixes must be satisfied for runtime.GOOS/GOARCH. The loader
// type-checks exactly one platform's file set — the host's — so
// tag-disjoint platform shims (mmap_unix.go / mmap_other.go and the like)
// do not collide as redeclarations.
func fileSelected(dir, name string) bool {
	if !filenameSelected(name) {
		return false
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return true // let ParseFile report the real error
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			if expr, err := constraint.Parse(line); err == nil {
				return expr.Eval(hostTagSatisfied)
			}
			continue
		}
		break // package clause: the constraint block is over
	}
	return true
}

// unixGOOS mirrors the GOOS values matched by the "unix" build tag.
var unixGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "hurd": true, "illumos": true, "ios": true,
	"linux": true, "netbsd": true, "openbsd": true, "solaris": true,
}

// knownGOOS/knownGOARCH drive filename-suffix constraint detection: a
// final _<token> only constrains the build when the token is a real
// platform name ("mmap_unix.go" is unconstrained, "x_linux.go" is not).
var knownGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "hurd": true, "illumos": true, "ios": true,
	"js": true, "linux": true, "netbsd": true, "openbsd": true,
	"plan9": true, "solaris": true, "wasip1": true, "windows": true,
}

var knownGOARCH = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

// hostTagSatisfied evaluates one build tag against the host platform,
// matching the cmd/go semantics this repository relies on.
func hostTagSatisfied(tag string) bool {
	switch {
	case tag == runtime.GOOS || tag == runtime.GOARCH:
		return true
	case tag == "unix":
		return unixGOOS[runtime.GOOS]
	case tag == "gc":
		return true
	case strings.HasPrefix(tag, "go1"):
		return true // release tags: the loader runs on the current toolchain
	}
	return false
}

// filenameSelected applies the _GOOS, _GOARCH and _GOOS_GOARCH filename
// conventions.
func filenameSelected(name string) bool {
	base := strings.TrimSuffix(name, ".go")
	parts := strings.Split(base, "_")
	// Trailing _test was already filtered; walk at most the last two
	// tokens: ..._GOOS_GOARCH.go, ..._GOOS.go or ..._GOARCH.go.
	if len(parts) >= 3 && knownGOOS[parts[len(parts)-2]] && knownGOARCH[parts[len(parts)-1]] {
		return parts[len(parts)-2] == runtime.GOOS && parts[len(parts)-1] == runtime.GOARCH
	}
	if len(parts) >= 2 {
		last := parts[len(parts)-1]
		if knownGOOS[last] {
			return last == runtime.GOOS
		}
		if knownGOARCH[last] {
			return last == runtime.GOARCH
		}
	}
	return true
}

// check type-checks one parsed package; its module-internal dependencies
// must already be checked (the generation order guarantees it).
func (l *Loader) check(n *loadNode) error {
	l.mu.Lock()
	if _, done := l.pkgs[n.pkgPath]; done {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(n.pkgPath, l.Fset, n.files, info)
	if err != nil {
		return fmt.Errorf("analysis: type-checking %s: %w", n.pkgPath, err)
	}
	p := &Package{
		PkgPath: n.pkgPath,
		Rel:     n.rel,
		Dir:     n.dir,
		Files:   n.files,
		Types:   tpkg,
		Info:    info,
	}
	l.mu.Lock()
	l.pkgs[n.pkgPath] = p
	l.mu.Unlock()
	return nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Import implements types.Importer: module-internal paths resolve to the
// already-checked packages of the closure; everything else (the standard
// library) is delegated to the source importer, serialized because that
// importer keeps unguarded internal state.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		l.mu.Lock()
		p := l.pkgs[path]
		l.mu.Unlock()
		if p == nil {
			return nil, fmt.Errorf("analysis: internal import %s not in load closure", path)
		}
		return p.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}
