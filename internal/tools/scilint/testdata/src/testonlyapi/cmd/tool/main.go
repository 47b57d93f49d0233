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
}
