package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExportAnalyzer returns the dead-export pass. It flags an
// exported function, method, type, variable or constant declared under
// the module's internal/ tree that no non-test file of the loaded
// world uses: internal/ is importable only from inside the module, so
// such a symbol is code nothing runs. Uses count from every package of
// the world (cmd/, examples/ and the perfbench module included), but
// never from _test.go files, which the loader does not parse.
//
// A method is exempt when its type satisfies an interface the module
// spells out, named or anonymous (a type assertion such as
// x.(interface{ SimPS() uint64 })), since interface calls do not name
// the concrete method, or when its name is on stdMethods.
func DeadExportAnalyzer() *Analyzer {
	return &Analyzer{
		Name:  "deadexport",
		Doc:   "flag exported internal/ symbols that no non-test code in the module uses",
		Rules: []string{"deadexport"},
		Run:   runDeadExport,
	}
}

// stdMethods are method names that satisfy standard-library
// interfaces. The loader stubs every import outside the module, so
// fmt.Stringer, error, io.Writer, http.Handler and friends have no
// method sets to check against; a method of one of these names is
// assumed to be called through them.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, // fmt
	"Error": true, "Unwrap": true, "Is": true, "As": true, // errors
	"Read": true, "Write": true, "Close": true, // io
	"ServeHTTP": true, "RoundTrip": true, // net/http
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, // sort, container/heap
	"MarshalJSON": true, "UnmarshalJSON": true, // encoding/json
	"Import":    true,                                   // go/types.Importer
	"BlockSize": true, "Encrypt": true, "Decrypt": true, // crypto/cipher.Block
}

// liveness is the world-wide use index the pass consults: every object
// some non-test file refers to, and every interface type the module
// spells out. It is built once per world.
type liveness struct {
	used   map[types.Object]bool
	ifaces []moduleIface
}

// moduleIface is an interface type spelled out in the module. generic
// marks one declared with type parameters: its method signatures may
// mention them, so types.Implements cannot decide it and a method-name
// match stands in.
type moduleIface struct {
	it      *types.Interface
	generic bool
}

func (w *World) liveness() *liveness {
	if w.live != nil {
		return w.live
	}
	lv := &liveness{used: map[types.Object]bool{}}
	for _, pkg := range w.Pkgs {
		visit := func(self types.Object, generic bool) func(ast.Node) bool {
			return func(n ast.Node) bool {
				switch t := n.(type) {
				case *ast.Ident:
					if obj := pkg.Info.Uses[t]; obj != nil && obj != self {
						lv.used[origin(obj)] = true
					}
				case *ast.InterfaceType:
					if it, ok := pkg.Info.Types[t].Type.(*types.Interface); ok {
						lv.ifaces = append(lv.ifaces, moduleIface{it, generic})
					}
				}
				return true
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					ast.Inspect(decl, visit(nil, declaresTypeParams(decl)))
					continue
				}
				// Neither a method's receiver nor a function's calls
				// to itself keep it or its type alive.
				v := visit(pkg.Info.Defs[fd.Name], false)
				ast.Inspect(fd.Type, v)
				if fd.Body != nil {
					ast.Inspect(fd.Body, v)
				}
			}
		}
	}
	w.live = lv
	return lv
}

// declaresTypeParams reports whether a declaration declares a generic
// type.
func declaresTypeParams(decl ast.Decl) bool {
	if d, ok := decl.(*ast.GenDecl); ok {
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok && ts.TypeParams != nil {
				return true
			}
		}
	}
	return false
}

// origin maps an instantiated generic method or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// satisfiesInterface reports whether the method's receiver type, by
// value or by pointer, implements a module interface that declares a
// method of the same name.
func (lv *liveness) satisfiesInterface(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	generic := named.TypeParams().Len() > 0
	for _, mi := range lv.ifaces {
		if !declares(mi.it, m.Name()) {
			continue
		}
		// Generic types and interfaces cannot be checked with
		// types.Implements; the name match has to do.
		if generic || mi.generic || types.Implements(named, mi.it) || types.Implements(types.NewPointer(named), mi.it) {
			return true
		}
	}
	return false
}

func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func runDeadExport(pass *Pass) {
	w := pass.World
	if w.ModulePath == "" || !strings.HasPrefix(pass.Pkg.Path, w.ModulePath+"/internal/") {
		return
	}
	lv := w.liveness()
	info := pass.Pkg.Info
	report := func(id *ast.Ident, kind, name string) {
		pass.Report("deadexport", SeverityWarning, id, "", kind+" "+name,
			fmt.Sprintf("exported %s %s is used by no non-test code in the module; delete it, or baseline it with a # justification", kind, name))
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, ok := info.Defs[d.Name].(*types.Func)
				if !ok || !d.Name.IsExported() || lv.used[obj] {
					continue
				}
				if d.Recv == nil {
					report(d.Name, "func", d.Name.Name)
					continue
				}
				if stdMethods[d.Name.Name] || lv.satisfiesInterface(obj) {
					continue
				}
				report(d.Name, "method", enclosingFuncName(d))
			case *ast.GenDecl:
				kind := map[token.Token]string{token.TYPE: "type", token.VAR: "var", token.CONST: "const"}[d.Tok]
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						if id.IsExported() && !lv.used[info.Defs[id]] {
							report(id, kind, id.Name)
						}
					}
				}
			}
		}
	}
}
