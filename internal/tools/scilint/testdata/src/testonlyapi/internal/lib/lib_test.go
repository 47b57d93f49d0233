package lib

import "testing"

// A call from a test file does not count: scilint loads no test files.
func TestOnlyIsCalledHere(t *testing.T) {
	if TestOnly() != 1 || Var != 1 || Const != 2 {
		t.Fatal("fixture values")
	}
	T{}.Stop()
	Drill()
}
