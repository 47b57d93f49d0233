package main

import (
	"path/filepath"
	"strings"
)

// unsafeConfine keeps package unsafe inside the one file built on it:
// internal/rdbms/value.go, where a Value keeps its kind in its pointer
// and shares its string's bytes. The invariants that make that sound —
// kinds by address, == a compile error, rows compared with Row.Identical
// — are stated and tested there; an unsafe conversion anywhere else would
// sit outside them. Test files are not loaded, so they stay free to
// measure layouts with unsafe.Sizeof.
type unsafeConfine struct{}

func (unsafeConfine) Name() string { return "unsafeconfine" }

func (unsafeConfine) Doc() string {
	return "package unsafe may be imported only by internal/rdbms/value.go (test files excepted)"
}

func (u unsafeConfine) Run(p *Pass) {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) != "unsafe" {
				continue
			}
			file := filepath.Base(p.Fset.Position(f.Pos()).Filename)
			if strings.HasSuffix(p.Path, "/internal/rdbms") && file == "value.go" {
				continue
			}
			p.Reportf(imp.Pos(), u.Name(),
				"unsafe import outside internal/rdbms/value.go: keep unsafe code in the one file that owns the Value layout")
		}
	}
}
