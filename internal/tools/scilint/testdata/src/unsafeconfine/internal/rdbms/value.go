// Package rdbms is an unsafeconfine golden fixture: its path ends in
// internal/rdbms, so its value.go may import unsafe and its other files
// may not.
package rdbms

import "unsafe"

// Value keeps its kind in its pointer, as the real one does.
type Value struct {
	p unsafe.Pointer
	n uint64
}

// String shares the string's bytes.
func String(s string) Value {
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}
