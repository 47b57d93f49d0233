// Package other lies outside internal/: its exported names are importable
// API and are not reported.
package other

// Exported has no caller.
func Exported() {}

// Options' field has no writer; pkg/other is outside internal/.
type Options struct{ Knob int }
