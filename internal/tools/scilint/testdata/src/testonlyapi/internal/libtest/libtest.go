// Package libtest is test support by design: a package whose name ends
// in "test" is exempt, so its unused exported names are not reported.
package libtest

// Harness has no caller.
func Harness() {}
