package xtestvariant_test

import (
	"testing"

	"lvm/internal/lint/testdata/src/xtestvariant"
	"lvm/internal/lint/testdata/src/xtestvariant/user"
)

func TestInc(t *testing.T) {
	var c *xtestvariant.Counter = user.New()
	c.Inc()
	if c.N() != 1 {
		t.Fail()
	}
}
