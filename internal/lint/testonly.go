package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// TestOnly keeps the production packages down to what production runs:
// every package-level function and method in an internal/ package, exported
// or not, must be referenced by some non-test code in the module — another
// internal package, cmd/, examples/, the root package or the wlanbench
// harness. A helper that only tests reach is either dead (delete it), a
// per-call twin of a production path (delete it with its tests) or a
// reference oracle (move it into the package's _test.go files, behind
// export_test.go for external test packages). Callers are resolved over
// the whole module even when the run is given one package pattern, and a
// reference from inside the function's own body does not count.
//
// Methods that satisfy an interface are exempt: they are reached through
// the interface (rf.FrontEnd's Process/Reset, fmt.Stringer, error,
// json.Marshaler, rand.Source, ...), where no caller names them. So are
// init and main, which the runtime calls, and the pure-Go twin fooGo of an
// assembly stub fooAsm, which asmtwin requires and only the purego build
// calls. A hook that must reach a package's unexported state for tests in
// other packages carries //lint:ignore testonly <reason>.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc: "flag functions and methods in internal/ packages that no " +
		"non-test code in the module references",
	Run: runTestOnly,
}

func runTestOnly(pass *Pass) {
	if !strings.Contains("/"+pass.Pkg.Path+"/", "/internal/") {
		return
	}
	idx := useIndexFor(pass.Pkg)
	if idx.err != nil {
		pass.Reportf(pass.Pkg.Files[0].Package, "fix the load error", "cannot resolve the module's callers: %v", idx.err)
		return
	}
	stubs := make(map[string]bool)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body == nil && fd.Recv == nil {
				stubs[fd.Name.Name] = true
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || exemptFromTestOnly(fd, stubs) {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || idx.used[fn] || idx.reachedThroughInterface(fn) {
				continue
			}
			kind, name := "func", fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				kind, name = "method", recvTypeName(recv.Type())+"."+name
			}
			vis := "exported"
			if !fn.Exported() {
				vis = "unexported"
			}
			pass.Reportf(fd.Name.Pos(),
				"delete it, move it into a _test.go file (export_test.go for external tests), or justify it with //lint:ignore testonly <reason>",
				"%s %s %s has no non-test caller in the module", vis, kind, name)
		}
	}
}

// exemptFromTestOnly reports whether a declaration is out of testonly's
// scope: init, main, or the Go twin of a stub in stubs.
func exemptFromTestOnly(fd *ast.FuncDecl, stubs map[string]bool) bool {
	if fd.Recv != nil {
		return false
	}
	name := fd.Name.Name
	base, twin := strings.CutSuffix(name, "Go")
	return name == "init" || name == "main" || twin && stubs[base+"Asm"]
}

// recvTypeName names a method's receiver type without package or pointer.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// useIndex is the module-wide reverse view testonly needs: the functions
// and methods non-test code references, and, by method name, the named
// interfaces through which a method can be called without being named.
type useIndex struct {
	used   map[*types.Func]bool
	ifaces map[string][]*types.Interface
	err    error
}

// useIndexFor returns the use index of the package's module, built once per
// Loader over every package under the module root. A package type-checked
// outside a Loader (a single-file fixture) is its own module.
func useIndexFor(pkg *Package) *useIndex {
	l := pkg.loader
	if l == nil {
		return buildUseIndex([]*Package{pkg})
	}
	if l.uses == nil {
		pkgs, err := l.loadModule()
		if err != nil {
			l.uses = &useIndex{err: err}
		} else {
			l.uses = buildUseIndex(pkgs)
		}
	}
	return l.uses
}

func buildUseIndex(pkgs []*Package) *useIndex {
	idx := &useIndex{used: make(map[*types.Func]bool), ifaces: make(map[string][]*types.Interface)}
	idx.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var addScope func(tp *types.Package)
	addScope = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					idx.addInterface(it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			addScope(imp)
		}
	}
	for _, p := range pkgs {
		addScope(p.TPkg)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				var self *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, _ = p.Info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						idx.used[fn.Origin()] = true
					}
					return true
				})
			}
		}
	}
	return idx
}

func (idx *useIndex) addInterface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		idx.ifaces[name] = append(idx.ifaces[name], it)
	}
}

// reachedThroughInterface reports whether fn is a method whose receiver
// type (or a pointer to it) implements an indexed interface that declares
// a method of fn's name.
func (idx *useIndex) reachedThroughInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range idx.ifaces[fn.Name()] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
