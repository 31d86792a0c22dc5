// Package user imports xtestvariant, so the external test package sees
// xtestvariant's types through it too.
package user

import "lvm/internal/lint/testdata/src/xtestvariant"

// New returns a fresh counter.
func New() *xtestvariant.Counter { return &xtestvariant.Counter{} }
