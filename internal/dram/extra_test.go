package dram

import (
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/stats"
)

// rowHitRate returns the row-buffer hit rate.
func (m *Model) rowHitRate() float64 {
	return stats.Ratio(m.rowHits.Value(), m.accesses.Value())
}

// TestSequentialBeatsRandomRowHits: a streaming access pattern must enjoy a
// far higher row-buffer hit rate (and lower average latency) than uniform
// random traffic — the locality property the row-buffer model exists to
// capture.
func TestSequentialBeatsRandomRowHits(t *testing.T) {
	run := func(next func(i int) addr.PA) (hitRate float64, avg float64) {
		m := New(DefaultConfig())
		total := 0
		const n = 20000
		for i := 0; i < n; i++ {
			total += m.Access(next(i))
		}
		return m.rowHitRate(), float64(total) / n
	}
	seqHits, seqAvg := run(func(i int) addr.PA { return addr.PA(i * 64) })
	rng := rand.New(rand.NewSource(9))
	rndHits, rndAvg := run(func(int) addr.PA { return addr.PA(rng.Int63n(4 << 30)) })

	if seqHits < 0.9 {
		t.Errorf("sequential row hit rate = %.3f, want ≥ 0.9", seqHits)
	}
	if rndHits > 0.2 {
		t.Errorf("random row hit rate = %.3f, want ≤ 0.2", rndHits)
	}
	if seqAvg >= rndAvg {
		t.Errorf("sequential avg latency %.1f not below random %.1f", seqAvg, rndAvg)
	}
}

// TestBankIsolation: an access stream alternating between two different
// banks must keep both rows open — the second visit to each address is a
// row hit, because row buffers are per (channel, bank).
func TestBankIsolation(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	a := addr.PA(0)
	// Same channel (line % channels equal), different bank.
	b := addr.PA(64 * uint64(cfg.Channels))
	ca, ba, _ := m.decode(a)
	cb, bb, _ := m.decode(b)
	if ca != cb || ba == bb {
		t.Fatalf("test addresses don't alternate banks within a channel: (%d,%d) vs (%d,%d)", ca, ba, cb, bb)
	}
	m.Access(a)
	m.Access(b)
	if got := m.Access(a); got != cfg.RowHitCycles {
		t.Errorf("revisit after other-bank access = %d cycles, want row hit %d", got, cfg.RowHitCycles)
	}
	if got := m.Access(b); got != cfg.RowHitCycles {
		t.Errorf("second bank lost its open row: %d cycles", got)
	}
}

// TestDeterministicReplay: the model's latencies depend only on the access
// sequence — two replays of the same stream produce identical totals (the
// whole simulator relies on this for reproducible experiments).
func TestDeterministicReplay(t *testing.T) {
	replay := func() int {
		m := New(DefaultConfig())
		rng := rand.New(rand.NewSource(4))
		total := 0
		for i := 0; i < 5000; i++ {
			total += m.Access(addr.PA(rng.Int63n(1 << 32)))
		}
		return total
	}
	if a, b := replay(), replay(); a != b {
		t.Errorf("replay diverged: %d vs %d cycles", a, b)
	}
}
