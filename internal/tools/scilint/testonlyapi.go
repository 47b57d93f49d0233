package main

import (
	"go/types"
	"strings"
)

// testOnlyAPI keeps the internal packages' exported surface equal to what
// the system calls. An exported function, method, variable, constant or
// type of a non-main package under internal/ that no non-test file of the
// module refers to is an entry point only tests take: it is either dead
// code with a test attached, or a second path to behaviour that ships
// through another name, so the tests check something production never
// runs. The
// use set is always the whole module (bench/ included), whatever
// packages are being analyzed, so `scilint ./internal/rdbms` gives the
// verdict `scilint ./...` gives.
//
// Exempt: packages whose name ends in "test" (test support by design),
// and methods through which their type satisfies an interface that loaded
// code declares or names (fmt.Stringer, http.Handler, error, ...). What
// the loader cannot see — an interface written inline in the standard
// library, a fault injector only tests drive — takes a
// //scilint:ignore testonlyapi <reason> directive.
type testOnlyAPI struct{}

func (testOnlyAPI) Name() string { return "testonlyapi" }

func (testOnlyAPI) Doc() string {
	return "an exported name of a non-main internal/ package must have a non-test caller"
}

func (t testOnlyAPI) Run(p *Pass) {
	if p.Pkg == nil || !inInternalZone(p.Path) {
		return
	}
	if name := p.Pkg.Name(); name == "main" || strings.HasSuffix(name, "test") {
		return
	}
	facts := p.module()
	for id, obj := range p.Info.Defs {
		if obj == nil || !obj.Exported() {
			continue
		}
		var what string
		switch o := obj.(type) {
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				if facts.satisfiesInterface(recv.Type(), o.Name()) {
					continue
				}
				what = "method"
			} else {
				what = "function"
			}
		case *types.Var:
			if o.IsField() || o.Parent() != p.Pkg.Scope() {
				continue
			}
			what = "variable"
		case *types.Const:
			if o.Parent() != p.Pkg.Scope() {
				continue
			}
			what = "constant"
		case *types.TypeName:
			if o.Parent() != p.Pkg.Scope() {
				continue
			}
			what = "type"
		default:
			continue
		}
		if facts.used[obj] {
			continue
		}
		p.Reportf(id.Pos(), t.Name(),
			"exported %s %s has no caller outside _test.go files: delete it, unexport it, or move it into a test file", what, id.Name)
	}
}

// inInternalZone reports whether the package lies under an internal/
// directory of its own tree. A package under testdata/ is laid out as a
// tree of its own, so only an internal segment after the last testdata
// segment counts: the golden fixture's internal/ is in the zone, the
// scilint package's other fixtures are not.
func inInternalZone(path string) bool {
	segs := strings.Split(path, "/")
	in := false
	for _, s := range segs {
		switch s {
		case "testdata":
			in = false
		case "internal":
			in = true
		}
	}
	return in
}

// moduleFacts is the whole-module view testonlyapi judges by: every
// object a non-test file of a loaded module package refers to, and the
// interface types that loaded code declares or names, indexed by method
// name.
type moduleFacts struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
}

// satisfiesInterface reports whether the method named name of the
// receiver type recv is there to satisfy an interface: some known
// interface has a method of that name and recv (or a pointer to it)
// implements the whole interface.
func (m *moduleFacts) satisfiesInterface(recv types.Type, name string) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range m.ifaces[name] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// moduleFacts builds the facts over every module package loaded so far
// (runAnalyzers loads the whole module first) and the packages they
// import, standard library included. The result is memoised until
// another package loads.
func (l *loader) moduleFacts() *moduleFacts {
	if l.facts != nil && l.factsPkgs == len(l.pkgs) {
		return l.facts
	}
	f := &moduleFacts{used: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			f.ifaces[name] = append(f.ifaces[name], iface)
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if pkg == nil || visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pi := range l.pkgs {
		for _, obj := range pi.info.Uses {
			f.used[origin(obj)] = true
		}
		for _, tv := range pi.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		visit(pi.pkg)
	}
	l.facts, l.factsPkgs = f, len(l.pkgs)
	return f
}

// origin maps a use of an instantiated generic function, method or field
// back to the object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
