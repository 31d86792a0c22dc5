package cache

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/dram"
)

func newHier() *Hierarchy {
	return New(DefaultConfig(), dram.New(dram.DefaultConfig()))
}

func TestColdMissThenHit(t *testing.T) {
	h := newHier()
	first := h.Access(0x1000, false)
	if first <= DefaultConfig().L3.LatencyCycles {
		t.Errorf("cold miss latency %d should include DRAM", first)
	}
	second := h.Access(0x1000, false)
	if second != DefaultConfig().L1.LatencyCycles {
		t.Errorf("warm hit latency = %d want L1 %d", second, DefaultConfig().L1.LatencyCycles)
	}
}

func TestSameLineSharesEntry(t *testing.T) {
	h := newHier()
	h.Access(0x1000, false)
	if got := h.Access(0x1030, false); got != DefaultConfig().L1.LatencyCycles {
		t.Errorf("same-line access latency = %d", got)
	}
}

func TestWalkEntersAtL2(t *testing.T) {
	h := newHier()
	h.Access(0x1000, true) // cold walk miss
	lat := h.Access(0x1000, true)
	if lat != DefaultConfig().L2.LatencyCycles {
		t.Errorf("warm walk hit latency = %d want L2 %d (walks bypass L1)", lat, DefaultConfig().L2.LatencyCycles)
	}
	// The walk line was never installed in L1: a demand access to it must
	// miss L1 and hit L2.
	if got := h.Access(0x1000, false); got != DefaultConfig().L2.LatencyCycles {
		t.Errorf("demand after walk = %d want L2 hit", got)
	}
}

func TestWalkEntersAtL1WhenConfigured(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WalkEntryLevel = 1
	h := New(cfg, dram.New(dram.DefaultConfig()))
	h.Access(0x1000, true)
	if got := h.Access(0x1000, true); got != cfg.L1.LatencyCycles {
		t.Errorf("PTW-to-L1 warm walk = %d want L1 hit", got)
	}
}

func TestMPKIAccounting(t *testing.T) {
	h := newHier()
	// 3 distinct lines cold-miss all levels.
	h.Access(0x10000, false)
	h.Access(0x20000, false)
	h.Access(0x30000, false)
	s := h.Snapshot()
	if got := s.Uint("l3.demand_misses") + s.Uint("l3.walk_misses"); got != 3 {
		t.Errorf("L3 misses = %d want 3", got)
	}
	if s.Uint("l1.demand_misses") != 3 || s.Uint("l1.walk_misses") != 0 {
		t.Errorf("demand/walk split wrong: %d/%d", s.Uint("l1.demand_misses"), s.Uint("l1.walk_misses"))
	}
	h.Access(0x40000, true)
	if got := h.Snapshot().Uint("l2.walk_misses"); got != 1 {
		t.Errorf("walk misses L2 = %d", got)
	}
}

func TestLRUWithinSet(t *testing.T) {
	cfg := DefaultConfig()
	h := New(cfg, dram.New(dram.DefaultConfig()))
	l1 := h.levels[0]
	// Collect ways+1 lines that hash into line 0's L1 set (set indexing is
	// hashed, so conflicting lines are found by search).
	target := l1.setIndex(0)
	lines := []uint64{0}
	for cand := uint64(1); len(lines) <= l1.cfg.Ways; cand++ {
		if l1.setIndex(cand) == target {
			lines = append(lines, cand)
		}
	}
	for _, line := range lines {
		h.Access(addr.PA(line*LineBytes), false)
	}
	// Line 0 must have been evicted from L1 (hits L2 now).
	if got := h.Access(0, false); got != cfg.L2.LatencyCycles {
		t.Errorf("evicted line latency = %d want L2 %d", got, cfg.L2.LatencyCycles)
	}
}

func TestDRAMCounting(t *testing.T) {
	h := newHier()
	h.Access(0x1000, false)
	h.Access(0x1000, false)
	if got := h.DRAM().Snapshot().Uint("accesses"); got != 1 {
		t.Errorf("DRAM accesses = %d want 1", got)
	}
}

func TestHitRate(t *testing.T) {
	h := newHier()
	h.Access(0x1000, false)
	h.Access(0x1000, false)
	h.Access(0x1000, false)
	s := h.Snapshot()
	if got := float64(s.Uint("l1.demand_hits")) / float64(s.Uint("l1.demand_hits")+s.Uint("l1.demand_misses")); got < 0.66 || got > 0.67 {
		t.Errorf("L1 hit rate = %v want 2/3", got)
	}
}

func TestBadWalkEntryPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WalkEntryLevel = 3
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(cfg, dram.New(dram.DefaultConfig()))
}
