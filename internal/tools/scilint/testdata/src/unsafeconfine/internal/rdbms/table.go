package rdbms

import "unsafe" // want unsafeconfine "unsafe import outside internal/rdbms/value.go"

// cellBytes measures a layout outside value.go, which is flagged. It is
// also the fixture's caller of String, which keeps testonlyapi quiet.
func cellBytes() uintptr { return unsafe.Sizeof(String("")) }
