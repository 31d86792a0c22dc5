package sched_test

import (
	"testing"

	"lvm/internal/experiments/sched"
)

// The blend is pinned exactly: integer per-mille EMA with weight 1/4 on
// each new sample and observations clamped to [0.25x, 4x]. Admission
// behavior depends on these numbers staying reproducible.
func TestCostModelBlend(t *testing.T) {
	m := sched.NewCostModel()
	if got := m.Corrected(1000); got != 1000 {
		t.Fatalf("neutral Corrected(1000) = %d, want 1000", got)
	}

	// Observed heap 2x the estimate: factor = (3*1000 + 2000) / 4 = 1250.
	m.Observe(1000, sched.MemSample{HeapInuseBytes: 2000})
	if got := m.FactorPerMille(); got != 1250 {
		t.Fatalf("after 2x sample: factor %d, want 1250", got)
	}
	if got := m.Corrected(1000); got != 1250 {
		t.Errorf("Corrected(1000) = %d, want 1250", got)
	}

	// A tiny observation clamps at 0.25x: factor = (3*1250 + 250) / 4 = 1000.
	m.Observe(1000, sched.MemSample{HeapInuseBytes: 100})
	if got := m.FactorPerMille(); got != 1000 {
		t.Fatalf("after clamped-low sample: factor %d, want 1000", got)
	}

	// A huge observation clamps at 4x: factor = (3*1000 + 4000) / 4 = 1750.
	m.Observe(1000, sched.MemSample{HeapInuseBytes: 1 << 40})
	if got := m.FactorPerMille(); got != 1750 {
		t.Fatalf("after clamped-high sample: factor %d, want 1750", got)
	}

	// Zero estimates carry no signal and must not move the factor.
	m.Observe(0, sched.MemSample{HeapInuseBytes: 1 << 30})
	if got := m.FactorPerMille(); got != 1750 {
		t.Errorf("zero-estimate observation moved the factor to %d", got)
	}
}

// TestCostModelFloor pins the 250‰ floor: however far the observed heap
// falls below the estimates, the factor settles at exactly 0.25x and no
// lower, so a budget admits at most four times its size in estimates.
func TestCostModelFloor(t *testing.T) {
	m := sched.NewCostModel()
	for i := 0; i < 64; i++ {
		m.Observe(7<<30, sched.MemSample{HeapInuseBytes: 1 << 30 / 16})
	}
	if got := m.FactorPerMille(); got != 250 {
		t.Fatalf("factor after 64 tiny samples: %d, want 250", got)
	}
	m.Observe(7<<30, sched.MemSample{})
	if got := m.FactorPerMille(); got != 250 {
		t.Errorf("an empty heap sample moved the factor below the floor: %d", got)
	}
	if got := m.Corrected(16 << 30); got != 4<<30 {
		t.Errorf("Corrected(16 GiB) at the floor = %d, want 4 GiB", got)
	}
}
