package dram

import (
	"testing"

	"lvm/internal/addr"
)

func TestRowBufferHit(t *testing.T) {
	m := New(DefaultConfig())
	first := m.Access(0x1000)
	if first != DefaultConfig().RowMissCycles {
		t.Errorf("cold access latency = %d", first)
	}
	// The same line again: same channel/bank/row — a row hit.
	second := m.Access(0x1000)
	if second != DefaultConfig().RowHitCycles {
		t.Errorf("repeat access latency = %d want row hit", second)
	}
}

func TestChannelInterleaving(t *testing.T) {
	m := New(DefaultConfig())
	// Consecutive lines go to different channels: decode must spread them.
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		ch, _, _ := m.decode(0x1000 + addr.PA(i)*64)
		seen[ch] = true
	}
	if len(seen) != DefaultConfig().Channels {
		t.Errorf("consecutive lines hit %d channels, want %d", len(seen), DefaultConfig().Channels)
	}
}

func TestRowConflictEvictsRow(t *testing.T) {
	m := New(DefaultConfig())
	cfg := DefaultConfig()
	stride := cfg.RowBytes * uint64(cfg.Channels) * uint64(cfg.Banks)
	m.Access(0)
	m.Access(addr.PA(stride)) // same channel/bank, different row
	if got := m.Access(0); got != cfg.RowMissCycles {
		t.Errorf("row conflict latency = %d want miss", got)
	}
}

func TestStats(t *testing.T) {
	m := New(DefaultConfig())
	m.Access(0x40)
	m.Access(0x40)
	if m.accesses.Value() != 2 {
		t.Errorf("accesses = %d", m.accesses.Value())
	}
	if got := m.rowHitRate(); got != 0.5 {
		t.Errorf("row hit rate = %v", got)
	}
}
