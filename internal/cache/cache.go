// Package cache models a three-level set-associative cache hierarchy with
// LRU replacement and per-level hit/miss accounting split between demand
// (data/instruction) requests and page-walk requests.
//
// The split matters: the paper's Figure 12 shows ECPT polluting L2/L3 with
// speculative PTE fetches while LVM stays within 1% of radix's MPKI. Walk
// requests can be configured to enter the hierarchy at L2 (the default) or
// L1 (the §7.2 "Connecting PTW to L1/L2 cache" study).
package cache

import (
	"lvm/internal/addr"
	"lvm/internal/dram"
	"lvm/internal/metrics"
	"lvm/internal/stats"
)

// LineBytes is the cache line size.
const LineBytes = 64

// LevelConfig describes one cache level.
type LevelConfig struct {
	SizeBytes int
	Ways      int
	// LatencyCycles is the round-trip latency on a hit at this level.
	LatencyCycles int
}

// Config is the hierarchy configuration (Table 1).
type Config struct {
	L1, L2, L3 LevelConfig
	// WalkEntryLevel is where page-walk requests enter: 1 (L1) or 2 (L2).
	WalkEntryLevel int
}

// DefaultConfig matches Table 1: 32 KB 8-way L1 (1 cycle), 1 MB 8-way L2
// (20 cycles), 2 MB 16-way L3 slice (56 cycles); walkers connect to L2.
func DefaultConfig() Config {
	return Config{
		L1:             LevelConfig{32 << 10, 8, 1},
		L2:             LevelConfig{1 << 20, 8, 20},
		L3:             LevelConfig{2 << 20, 16, 56},
		WalkEntryLevel: 2,
	}
}

// noLine is the empty-way sentinel: line tags are PA/LineBytes, so no
// reachable physical address can produce it.
const noLine = ^uint64(0)

type level struct {
	cfg  LevelConfig
	slab []uint64 // nsets × Ways line tags, most-recent-first per set
	// ways mirrors cfg.Ways; nsets the set count — kept flat so the lookup
	// hot path indexes the contiguous slab without pointer-chasing per-set
	// slice headers.
	ways, nsets int

	demandHits, demandMisses stats.Counter
	walkHits, walkMisses     stats.Counter
}

func newLevel(cfg LevelConfig) *level {
	nsets := cfg.SizeBytes / LineBytes / cfg.Ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		//lint:allow nopanic compile-time geometry from sim.Config, never reachable from run inputs
		panic("cache: set count must be a positive power of two")
	}
	l := &level{cfg: cfg, ways: cfg.Ways, nsets: nsets, slab: make([]uint64, nsets*cfg.Ways)}
	for i := range l.slab {
		l.slab[i] = noLine
	}
	return l
}

// setIndex hashes the line address into a set, as modern LLCs do: pure
// modulo indexing makes every page-aligned structure (page tables are page
// aligned) collide in set 0 once set counts are small, which is an artifact
// of the scaled-down model rather than of any translation scheme.
func (l *level) setIndex(line uint64) int {
	h := line ^ line>>7 ^ line>>13
	return int(h) & (l.nsets - 1)
}

func (l *level) lookup(line uint64, walk bool) bool {
	base := l.setIndex(line) * l.ways
	set := l.slab[base : base+l.ways]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			if walk {
				l.walkHits.Inc()
			} else {
				l.demandHits.Inc()
			}
			return true
		}
	}
	if walk {
		l.walkMisses.Inc()
	} else {
		l.demandMisses.Inc()
	}
	return false
}

func (l *level) fill(line uint64) {
	base := l.setIndex(line) * l.ways
	set := l.slab[base : base+l.ways]
	copy(set[1:], set[:l.ways-1])
	set[0] = line
}

// Hierarchy is the L1/L2/L3 + DRAM stack.
type Hierarchy struct {
	cfg    Config
	levels [3]*level
	dram   *dram.Model
}

// New builds the hierarchy over the given DRAM model.
func New(cfg Config, mem *dram.Model) *Hierarchy {
	if cfg.WalkEntryLevel != 1 && cfg.WalkEntryLevel != 2 {
		//lint:allow nopanic compile-time geometry from sim.Config, never reachable from run inputs
		panic("cache: WalkEntryLevel must be 1 or 2")
	}
	return &Hierarchy{
		cfg:    cfg,
		levels: [3]*level{newLevel(cfg.L1), newLevel(cfg.L2), newLevel(cfg.L3)},
		dram:   mem,
	}
}

// Access performs one request and returns its latency in cycles. Walk
// requests enter at the configured level; demand requests at L1.
func (h *Hierarchy) Access(pa addr.PA, walk bool) int {
	line := uint64(pa) / LineBytes
	start := 0
	if walk && h.cfg.WalkEntryLevel == 2 {
		start = 1
	}
	latency := 0
	for i := start; i < 3; i++ {
		latency = h.levels[i].cfg.LatencyCycles
		if h.levels[i].lookup(line, walk) {
			// Fill upward so subsequent accesses hit closer (but never
			// above the entry point).
			for j := start; j < i; j++ {
				h.levels[j].fill(line)
			}
			return latency
		}
	}
	latency = h.levels[2].cfg.LatencyCycles + h.dram.Access(pa)
	for j := start; j < 3; j++ {
		h.levels[j].fill(line)
	}
	return latency
}

// DRAM returns the underlying memory model.
func (h *Hierarchy) DRAM() *dram.Model { return h.dram }

// levelNames index the metric namespace per cache level.
var levelNames = [3]string{"l1", "l2", "l3"}

// Snapshot implements metrics.Source: per-level hit/miss counters split by
// request class (demand vs page-walk). The split is the Figure-12
// interface — walk pollution is only visible when walk misses are
// distinguishable. The backing DRAM model snapshots separately (the
// simulator namespaces it under "dram").
func (h *Hierarchy) Snapshot() metrics.Set {
	var s metrics.Set
	for i, l := range h.levels {
		name := levelNames[i]
		s.Counter(name+".demand_hits", l.demandHits.Value())
		s.Counter(name+".demand_misses", l.demandMisses.Value())
		s.Counter(name+".walk_hits", l.walkHits.Value())
		s.Counter(name+".walk_misses", l.walkMisses.Value())
	}
	return s
}

var _ metrics.Source = (*Hierarchy)(nil)
