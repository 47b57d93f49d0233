package rdbms

import "unsafe" // want unsafeconfine "unsafe import outside internal/rdbms/value.go"

// cellBytes measures a layout outside value.go, which is flagged.
func cellBytes() uintptr { return unsafe.Sizeof(Value{}) }
