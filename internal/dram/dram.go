// Package dram provides a DDR4-like main-memory latency model: channels and
// banks decoded from the physical address, per-bank open rows, and row
// buffer hit/miss latencies. It stands in for DRAMSim3 in the paper's
// simulation stack: the quantities that matter to the evaluation are the
// number of requests that reach memory and the latency each pays.
package dram

import (
	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/stats"
)

// Config describes the memory organization (Table 1: DDR4 3200MT/s, 8
// banks, 4 channels) and its latencies in CPU cycles at 2 GHz.
type Config struct {
	Channels int
	Banks    int
	// RowBytes is the row-buffer size per bank.
	RowBytes uint64
	// RowHitCycles is the latency of a row-buffer hit (CAS only).
	RowHitCycles int
	// RowMissCycles is the latency of a precharge+activate+CAS sequence.
	RowMissCycles int
}

// DefaultConfig matches Table 1 at 2 GHz: ~22 ns CAS (44 cycles) on a row
// hit, roughly double on a row miss.
func DefaultConfig() Config {
	return Config{
		Channels:      4,
		Banks:         8,
		RowBytes:      8 << 10,
		RowHitCycles:  44,
		RowMissCycles: 90,
	}
}

// Model is the memory-latency model. It is deterministic: latency depends
// only on the access sequence.
type Model struct {
	cfg Config
	// openRow[channel][bank] is the currently open row (or ^0 if none).
	openRow [][]uint64

	accesses, rowHits stats.Counter
}

// New creates a model from the configuration.
func New(cfg Config) *Model {
	m := &Model{cfg: cfg, openRow: make([][]uint64, cfg.Channels)}
	for c := range m.openRow {
		m.openRow[c] = make([]uint64, cfg.Banks)
		for b := range m.openRow[c] {
			m.openRow[c][b] = ^uint64(0)
		}
	}
	return m
}

// decode splits a physical address into channel, bank, and row. Channel
// bits are taken just above the cache line, banks above that, so
// consecutive lines stripe across channels (the usual interleaving).
func (m *Model) decode(pa addr.PA) (ch, bank int, row uint64) {
	line := uint64(pa) >> 6
	ch = int(line % uint64(m.cfg.Channels))
	rest := line / uint64(m.cfg.Channels)
	bank = int(rest % uint64(m.cfg.Banks))
	row = uint64(pa) / (m.cfg.RowBytes * uint64(m.cfg.Channels) * uint64(m.cfg.Banks))
	return ch, bank, row
}

// Access performs one memory access and returns its latency in cycles.
func (m *Model) Access(pa addr.PA) int {
	ch, bank, row := m.decode(pa)
	m.accesses.Inc()
	if m.openRow[ch][bank] == row {
		m.rowHits.Inc()
		return m.cfg.RowHitCycles
	}
	m.openRow[ch][bank] = row
	return m.cfg.RowMissCycles
}

// Snapshot implements metrics.Source: total requests that reached memory
// and how many of them hit an open row.
func (m *Model) Snapshot() metrics.Set {
	var s metrics.Set
	s.Counter("accesses", m.accesses.Value())
	s.Counter("row_hits", m.rowHits.Value())
	return s
}

var _ metrics.Source = (*Model)(nil)
