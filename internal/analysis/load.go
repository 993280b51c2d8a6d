package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("grinch/internal/gift").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset is the world-shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test sources, comments included.
	Files []*ast.File
	// Types and Info are the go/types results. Type checking runs with
	// stubbed non-module imports, so Info is complete for everything
	// defined in this module and best-effort for stdlib-typed
	// expressions — exactly what the passes need.
	Types *types.Package
	Info  *types.Info
}

// World is a loaded module: every package, the shared file set, the
// module-wide secret annotation table and the suppression index.
type World struct {
	// ModulePath is the module identity from go.mod ("grinch").
	ModulePath string
	// Root is the module root directory.
	Root string
	Fset *token.FileSet
	// Pkgs holds every loaded package in deterministic (path) order.
	Pkgs []*Package

	// secrets is the module-wide annotation table (annotate.go).
	secrets *secretTable
	// ignores maps file name -> line -> ignored rules (ignore.go).
	ignores map[string]map[int][]string
	// geoms is the container-geometry table for the quant model
	// (quant.go): declaration-inferred and annotated sizes.
	geoms map[types.Object]Geometry
	// live is the dead-export pass's use index, built on first use
	// (deadexport.go).
	live *liveness
}

// stubImporter satisfies go/types for imports outside the module by
// returning empty, complete packages. Selections into them fail to
// resolve; the type checker records the error with the configured
// handler and keeps going. The determinism rules work syntactically off
// import paths, and the leakage rules only need module-internal types,
// so the stubs cost nothing — and keep the analyzer free of go/packages
// and of shelling out to the go tool.
type stubImporter struct {
	known map[string]*types.Package
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.known[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	// "v2"-style elements make bad package names; use the parent.
	if strings.HasPrefix(name, "v") && len(name) <= 3 {
		parts := strings.Split(path, "/")
		if len(parts) >= 2 {
			name = parts[len(parts)-2]
		}
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	si.known[path] = p
	return p, nil
}

// LoadModule loads and type-checks every package of the module rooted
// at (or above) dir. All packages are loaded regardless of patterns —
// dependencies must be checked to type their dependents; pattern
// filtering happens at analysis time via Match.
func LoadModule(dir string) (*World, error) {
	root, modulePath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	w := &World{
		ModulePath: modulePath,
		Root:       root,
		Fset:       token.NewFileSet(),
		ignores:    map[string]map[int][]string{},
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	// Parse every package first so the import graph is known.
	type parsed struct {
		pkg     *Package
		imports []string
	}
	byPath := map[string]*parsed{}
	var order []string
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		path := modulePath
		if rel != "." {
			path = modulePath + "/" + filepath.ToSlash(rel)
		}
		files, err := parseDir(w.Fset, d)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		p := &parsed{pkg: &Package{Path: path, Dir: d, Fset: w.Fset, Files: files}}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == modulePath || strings.HasPrefix(ip, modulePath+"/") {
					p.imports = append(p.imports, ip)
				}
			}
		}
		byPath[path] = p
		order = append(order, path)
	}
	sort.Strings(order)

	// Type check in dependency order.
	si := &stubImporter{known: map[string]*types.Package{}}
	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var check func(path string) error
	check = func(path string) error {
		p, ok := byPath[path]
		if !ok {
			return fmt.Errorf("analysis: import %q not found in module", path)
		}
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %q", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, dep := range p.imports {
			if err := check(dep); err != nil {
				return err
			}
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{
			Importer: si,
			Error:    func(error) {}, // stub-import fallout; keep going
		}
		tp, _ := conf.Check(path, w.Fset, p.pkg.Files, info)
		p.pkg.Types = tp
		p.pkg.Info = info
		si.known[path] = tp
		state[path] = 2
		w.Pkgs = append(w.Pkgs, p.pkg)
		return nil
	}
	for _, path := range order {
		if err := check(path); err != nil {
			return nil, err
		}
	}

	w.finish()
	return w, nil
}

// LoadPackageDir loads one directory as a standalone package under the
// given import path, with no module context — the test-fixture loader.
func LoadPackageDir(dir, importPath string) (*World, *Package, error) {
	w := &World{
		ModulePath: "",
		Root:       dir,
		Fset:       token.NewFileSet(),
		ignores:    map[string]map[int][]string{},
	}
	files, err := parseDir(w.Fset, dir)
	if err != nil {
		return nil, nil, err
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: &stubImporter{known: map[string]*types.Package{}},
		Error:    func(error) {},
	}
	tp, _ := conf.Check(importPath, w.Fset, files, info)
	pkg := &Package{Path: importPath, Dir: dir, Fset: w.Fset, Files: files, Types: tp, Info: info}
	w.Pkgs = []*Package{pkg}
	w.finish()
	return w, pkg, nil
}

// finish builds the world-level derived tables once all packages are in.
func (w *World) finish() {
	w.secrets = collectSecrets(w)
	w.geoms = collectGeometries(w)
	for _, pkg := range w.Pkgs {
		collectIgnores(w, pkg)
	}
}

// Match returns the loaded packages selected by Go-style patterns
// relative to the module root: "./..." (everything), "./x/..."
// (subtree), "./x" (exact). Bare import paths are accepted too.
func (w *World) Match(patterns []string) []*Package {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []*Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if pat == "..." {
			pat, recursive = "", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		for _, pkg := range w.Pkgs {
			rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, w.ModulePath), "/")
			full := pkg.Path
			match := false
			switch {
			case recursive && pat == "":
				match = true
			case recursive:
				match = rel == pat || strings.HasPrefix(rel, pat+"/") ||
					full == pat || strings.HasPrefix(full, pat+"/")
			default:
				match = rel == pat || full == pat
			}
			if match && !seen[pkg.Path] {
				seen[pkg.Path] = true
				out = append(out, pkg)
			}
		}
	}
	return out
}

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, modulePath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// packageDirs lists every directory under root that holds non-test Go
// files, skipping testdata, vendored and hidden trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				return nil
			}
		}
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test Go files of one directory. Files whose
// package clause disagrees with the directory majority are dropped (a
// main/doc split would otherwise poison type checking).
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	counts := map[string]int{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
		counts[f.Name.Name]++
	}
	if len(counts) > 1 {
		major, n := "", 0
		for name, c := range counts {
			if c > n || (c == n && name < major) {
				major, n = name, c
			}
		}
		kept := files[:0]
		for _, f := range files {
			if f.Name.Name == major {
				kept = append(kept, f)
			}
		}
		files = kept
	}
	return files, nil
}
