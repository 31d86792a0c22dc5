// Package xtestvariant is a loader fixture: its external test package uses
// a helper that only its in-package export_test.go file defines.
package xtestvariant

// Counter counts.
type Counter struct{ n int }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }
