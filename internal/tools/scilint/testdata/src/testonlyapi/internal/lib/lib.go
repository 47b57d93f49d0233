// Package lib is the testonlyapi golden fixture: its path puts it under
// internal/, so every exported function, method, variable, constant and
// type needs a caller outside _test.go files. cmd/tool is the fixture's
// production code; lib_test.go calls what only tests use.
package lib

// Used has a production caller.
func Used() int { return helper() }

// TestOnly is called from lib_test.go only.
func TestOnly() int { return 1 } // want testonlyapi "exported function TestOnly has no caller outside _test.go files"

// Var is read by nothing.
var Var = 1 // want testonlyapi "exported variable Var"

// Const is read by nothing.
const Const = 2 // want testonlyapi "exported constant Const"

// Limit is read by cmd/tool.
const Limit = 3

// Orphan is a type nothing outside tests names.
type Orphan struct{} // want testonlyapi "exported type Orphan"

// T carries methods of every verdict.
type T struct {
	// Field is exported and unread; fields are not reported.
	Field int
}

// String satisfies fmt.Stringer, an interface of the standard library.
func (T) String() string { return "t" }

// Run satisfies cmd/tool's runner interface.
func (T) Run() {}

// Stop has no caller.
func (T) Stop() {} // want testonlyapi "exported method Stop"

// Box is generic: a use through an instantiation counts for the
// declaration.
type Box[V any] struct{ v V }

// Get is called on a Box[int] by cmd/tool.
func (b Box[V]) Get() V { return b.v }

// Map is called with inferred type arguments by cmd/tool.
func Map[V any](v V) V { return v }

// Drill is driven by tests only, on purpose.
//
//scilint:ignore testonlyapi fixture: a suppressed finding stays quiet
func Drill() {}

// helper is unexported: never reported.
func helper() int { return 0 }
