// Command tool is the testonlyapi fixture's production code: the uses
// here are what the lib package's exported names are judged by. A main
// package is never reported itself.
package main

import (
	"fmt"

	"repro/internal/tools/scilint/testdata/src/testonlyapi/internal/lib"
)

// runner is satisfied by lib.T.
type runner interface{ Run() }

// Unused is exported in a main package: not reported.
func Unused() {}

func main() {
	var r runner = lib.T{}
	r.Run()
	fmt.Println(lib.Used(), lib.Limit, lib.Box[int]{}.Get(), lib.Map("x"))

	// One write of each kind to a field of lib.Config.
	cfg := lib.Config{Keyed: 1}
	cfg.Assigned = 2
	cfg.Summed += 3
	cfg.Counted++
	cfg.Indexed["k"] = 4
	addr := &cfg.Addressed
	*addr = 5
	cfg.Locked.Inc()
	cfg.Observe(6)
	fmt.Println(lib.Pair{7, 8}, cfg)
	fmt.Println(lib.NewTuning(9), NewScaled(), lib.Rows())
}

// NewScaled stores a constant into a field of another package: a write.
func NewScaled() lib.Tuning { return lib.Tuning{Scale: 10} }
