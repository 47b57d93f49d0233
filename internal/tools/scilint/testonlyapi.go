package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// testOnlyAPI keeps the internal packages' exported surface equal to what
// the system calls. An exported function, method, variable, constant or
// type of a non-main package under internal/ that no non-test file of the
// module refers to is an entry point only tests take: it is either dead
// code with a test attached, or a second path to behaviour that ships
// through another name, so the tests check something production never
// runs. The use set is always the whole module (bench/ included),
// whatever packages are being analyzed, so `scilint ./internal/rdbms`
// gives the verdict `scilint ./...` gives.
//
// An exported struct field needs a writer in some non-test file: a keyed
// or positional composite literal, an assignment (=, op=, ++, --) to x.f
// or x.f[k], &x.f, or a call of a pointer method on x.f. A default fill
// is not a write: an assignment inside the body of an if whose condition
// compares that same field with a constant or nil (`if c.N <= 0 { c.N =
// 64 }`) is the callee choosing a value nobody else chose. Neither is a
// constant that a New* function's composite literal stores into a field
// of its own package (`&Tagger{Tau: 0.08}` in NewTagger): the constructor
// fixes a value nobody can choose. A field only tests set is a knob
// production never turns: it becomes a constant, or an unexported hook
// the package's tests set.
//
// Exempt: packages whose name ends in "test" (test support by design),
// methods through which their type satisfies an interface that loaded
// code declares or names (fmt.Stringer, http.Handler, error, ...), and
// fields with a json tag (encoding/json writes them by reflection). What
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
			if o.IsField() && !o.Embedded() && !facts.written[o] {
				p.Reportf(id.Pos(), t.Name(),
					"exported field %s has no writer outside _test.go files (a default fill is not one): make it a constant, or an unexported field the package's tests set", id.Name)
			}
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
// object a non-test file of a loaded module package refers to, every
// struct field such a file writes, and the interface types that loaded
// code declares or names, indexed by method name.
type moduleFacts struct {
	used    map[types.Object]bool
	written map[*types.Var]bool
	ifaces  map[string][]*types.Interface
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
	f := &moduleFacts{used: map[types.Object]bool{}, written: map[*types.Var]bool{}, ifaces: map[string][]*types.Interface{}}
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
		w := fieldWrites{info: pi.info, pkg: pi.pkg, written: f.written}
		for _, file := range pi.files {
			ast.Walk(w, file)
		}
	}
	l.facts, l.factsPkgs = f, len(l.pkgs)
	return f
}

// fieldWrites is the ast.Visitor that records the struct fields a file of
// package pkg writes. fills holds the fields the enclosing ifs' conditions
// compare with a constant or nil: assigning one of them in such an if's
// body is a default fill, not a write. ctor is set inside the body of a
// New* function: there a literal's constant element for a field of pkg is
// the constructor's fixed value, not a write.
type fieldWrites struct {
	info    *types.Info
	pkg     *types.Package
	written map[*types.Var]bool
	fills   []*types.Var
	ctor    bool
}

func (w fieldWrites) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.FuncDecl:
		body := w
		body.ctor = n.Recv == nil && strings.HasPrefix(n.Name.Name, "New")
		return body
	case *ast.IfStmt:
		for _, part := range []ast.Node{n.Init, n.Cond, n.Else} {
			if part != nil {
				ast.Walk(w, part)
			}
		}
		body := w
		body.fills = append(slices.Clip(w.fills), w.constCompared(n.Cond)...)
		ast.Walk(body, n.Body)
		return nil
	case *ast.Field:
		// encoding/json writes a json-tagged field by reflection.
		if n.Tag != nil && strings.Contains(n.Tag.Value, "json:") {
			for _, id := range n.Names {
				if v, ok := w.info.Defs[id].(*types.Var); ok {
					w.written[v] = true
				}
			}
		}
	case *ast.CompositeLit:
		t := w.info.TypeOf(n)
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, _ := t.Underlying().(*types.Struct)
		for i, elt := range n.Elts {
			var f *types.Var
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				f, elt = w.field(kv.Key), kv.Value
			} else if st != nil && i < st.NumFields() {
				f = st.Field(i).Origin()
			}
			if f != nil && !(w.ctor && f.Pkg() == w.pkg && w.info.Types[elt].Value != nil) {
				w.written[f] = true
			}
		}
	case *ast.AssignStmt:
		w.assign(n.Lhs...)
	case *ast.IncDecStmt:
		w.assign(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.mark(n.X)
		}
	case *ast.CallExpr:
		// x.f.M() with M on *T and f of type T takes &x.f.
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
			if s := w.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal &&
				isPointer(s.Obj().Type().(*types.Signature).Recv().Type()) && !isPointer(w.info.TypeOf(sel.X)) {
				w.mark(sel.X)
			}
		}
	}
	return w
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// assign records assignments to lhs that are not default fills.
func (w fieldWrites) assign(lhs ...ast.Expr) {
	for _, e := range lhs {
		if v := w.field(e); v != nil && !slices.Contains(w.fills, v) {
			w.written[v] = true
		}
	}
}

// mark records e's field, whatever encloses it.
func (w fieldWrites) mark(e ast.Expr) {
	if v := w.field(e); v != nil {
		w.written[v] = true
	}
}

// field resolves x.f, x.f[k], *x.f, a composite literal's key f and
// their parenthesised forms to the field f they store into, or nil.
func (w fieldWrites) field(e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := w.info.Uses[x].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
			return nil
		case *ast.SelectorExpr:
			if s := w.info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var).Origin()
			}
			return nil
		default:
			return nil
		}
	}
}

// constCompared lists the fields that cond compares with a constant or
// nil, through && and || and parentheses.
func (w fieldWrites) constCompared(cond ast.Expr) []*types.Var {
	var out []*types.Var
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op == token.LAND || b.Op == token.LOR {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
			if tv := w.info.Types[pair[1]]; tv.Value != nil || tv.IsNil() {
				if v := w.field(pair[0]); v != nil {
					out = append(out, v)
				}
			}
		}
		return false
	})
	return out
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
