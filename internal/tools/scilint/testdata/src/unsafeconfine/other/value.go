// Package other is an unsafeconfine golden fixture: a file named value.go
// outside internal/rdbms gets no exemption, nor does a blank import.
package other

import (
	_ "unsafe" // want unsafeconfine "unsafe import outside internal/rdbms/value.go"
)
