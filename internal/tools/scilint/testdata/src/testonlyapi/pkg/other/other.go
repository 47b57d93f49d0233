// Package other lies outside internal/: its exported names are importable
// API and are not reported.
package other

// Exported has no caller.
func Exported() {}
