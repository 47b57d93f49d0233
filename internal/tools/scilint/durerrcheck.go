package main

import (
	"go/ast"
	"go/types"
)

// durErrCheck flags durability-critical calls whose error result is
// discarded. A dropped WAL append, fsync, rename or write-path Close is
// an acknowledged write that may not exist after a crash — PR 5's
// group-commit and PR 6's degraded-mode machinery both exist because
// these errors MUST propagate. A discarded call is one used as a bare
// statement, in a go statement, or (for non-Close methods) a defer;
// assigning to _ is visible in review and counts as an explicit decision,
// as does a //scilint:ignore with a reason.
//
// The critical set: methods of the vfs layer (Sync, SyncDir, Rename,
// Close), os.File Sync/Close (inside the vfs implementation itself),
// WAL append/Sync/Flush/Close, and DB and Platform Checkpoint/Close. A
// *deferred* Close is exempt — that is the read-path cleanup idiom; write
// paths Close inline before renaming.
type durErrCheck struct{}

func (durErrCheck) Name() string { return "durerrcheck" }

func (durErrCheck) Doc() string {
	return "errors from WAL/fsync/rename/checkpoint/write-path-Close calls must be checked"
}

var (
	vfsCritical      = map[string]bool{"Sync": true, "SyncDir": true, "Rename": true, "Close": true}
	osFileCritical   = map[string]bool{"Sync": true, "Close": true}
	walCritical      = map[string]bool{"append": true, "Append": true, "Sync": true, "Flush": true, "Close": true}
	dbCritical       = map[string]bool{"Checkpoint": true, "Close": true}
	platformCritical = map[string]bool{"Checkpoint": true, "Close": true}
)

func (d durErrCheck) Run(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			deferred := false
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call, deferred = s.Call, true
			case *ast.GoStmt:
				call = s.Call
			}
			if call == nil {
				return true
			}
			if why := critical(p, call, deferred); why != "" {
				p.Reportf(call.Pos(), d.Name(),
					"discarded error from %s: %s — check it, assign to _, or //scilint:ignore with a reason",
					types.ExprString(call.Fun), why)
			}
			return true
		})
	}
}

// critical classifies a result-discarding call; it returns a non-empty
// reason when the call is durability-critical and returns an error.
func critical(p *Pass, call *ast.CallExpr, deferred bool) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !returnsError(sig) {
		return ""
	}
	name := fn.Name()
	if deferred && name == "Close" {
		return "" // deferred Close is the read-path cleanup idiom
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if pathHasSegment(pkgPath, "vfs") && vfsCritical[name] {
		return "a vfs durability call"
	}
	if pkgPath == "os" && recvTypeName(sig) == "File" && osFileCritical[name] {
		return "an os.File durability call"
	}
	switch recvTypeName(sig) {
	case "WAL":
		if walCritical[name] {
			return "a write-ahead-log call"
		}
	case "DB":
		if dbCritical[name] {
			return "a storage-engine durability call"
		}
	case "Platform":
		if platformCritical[name] {
			return "a platform durability call"
		}
	}
	return ""
}

// recvTypeName names the method's receiver type, pointers stripped.
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

var errorType = types.Universe.Lookup("error").Type()

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}
