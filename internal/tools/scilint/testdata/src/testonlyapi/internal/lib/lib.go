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
type T struct{}

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

// Config carries one exported field per kind of write: cmd/tool writes
// each of the first seven one way, Observe keeps Peak a running max, and
// nothing outside lib_test.go writes Filled, Hook or TestSet.
type Config struct {
	Keyed      int
	Assigned   int
	Summed     int
	Counted    int
	Indexed    map[string]int
	Addressed  int
	Locked     Counter
	Peak       int    // a running max in Observe is a write
	Decoded    string `json:"decoded"` // encoding/json writes it: exempt
	Filled     int    // want testonlyapi "exported field Filled has no writer outside _test.go files"
	Hook       func() // want testonlyapi "exported field Hook has"
	TestSet    int    // want testonlyapi "exported field TestSet has"
	unexported int
}

// Pair is written by a positional literal in cmd/tool.
type Pair struct{ A, B int }

// Counter's pointer method makes cfg.Locked.Inc() take &cfg.Locked.
type Counter struct{ n int }

// Inc is called on a Config field by cmd/tool.
func (c *Counter) Inc() { c.n++ }

// Observe fills Filled and Hook with their defaults — assignments under an
// if that compares the same field with a constant or nil, which are not
// writes — and keeps Peak a running max, which is.
func (c *Config) Observe(d int) {
	if c.Filled <= 0 || c.Filled > 100 {
		c.Filled = 64
	}
	if c.Hook == nil {
		c.Hook = func() {}
	}
	if d > c.Peak {
		c.Peak = d
	}
	c.unexported = d
}

// Tuning is built by NewTuning. Rate is only ever the constant its own
// package's constructor stores, so nothing writes it; the constructor
// stores Size from its caller, and Scale is a constant that a New*
// function of cmd/tool stores: both are writes.
type Tuning struct {
	Rate  float64 // want testonlyapi "exported field Rate has no writer"
	Size  int
	Scale int
}

// NewTuning fixes Rate and takes Size from the caller.
func NewTuning(size int) *Tuning { return &Tuning{Rate: 0.5, Size: size} }

// Row is one entry of a data table.
type Row struct {
	Name   string
	Weight int
}

// Rows is a data table: constants in a literal outside a New* function
// are writes, keyed or positional.
func Rows() []Row { return []Row{{Name: "a", Weight: 1}, {"b", 2}} }

// helper is unexported: never reported.
func helper() int { return 0 }
