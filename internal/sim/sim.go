// Package sim is the trace-driven full-system timing simulator that stands
// in for the paper's SST+QEMU stack (§6.1). Each memory access of a
// workload trace flows through the Table-1 machine model: L1/L2 TLBs, the
// scheme's hardware page walker (whose memory requests are charged to the
// cache hierarchy and DRAM), and finally the data access itself.
//
// Cycle accounting models a 4-issue out-of-order core: instructions retire
// at the issue width, translation latency is exposed (an access cannot
// start before its translation), and data-miss latency is partially hidden
// by memory-level parallelism.
package sim

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/cache"
	"lvm/internal/dram"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/pte"
	"lvm/internal/stats"
	"lvm/internal/tlb"
	"lvm/internal/workload"
)

// Config is the machine configuration.
type Config struct {
	Cache cache.Config
	DRAM  dram.Config
	// TLBL1Small, TLBL1Huge, TLBL2, TLBL2Huge size the TLBs (entries per
	// page size; TLBL2Huge defaults to TLBL2).
	TLBL1Small, TLBL1Huge, TLBL2, TLBL2Huge int
	// IssueWidth is the core's retire rate in instructions per cycle.
	IssueWidth float64
	// DataOverlap is the fraction of data-access latency hidden by the
	// out-of-order window and MLP (0 = fully exposed, 1 = fully hidden).
	DataOverlap float64
	// Midgard enables the §7.5.2 model: data requests are looked up with
	// the intermediate (virtual) address first; translation is needed only
	// when the request misses the LLC.
	Midgard bool
}

// DefaultBatchSize is the miss-batch length in which the repository
// benchmark's layer ledger (perfbench/) drives walkers through
// mmu.BatchWalker. The simulator never reads it: every run steps one access
// at a time.
const DefaultBatchSize = 64

// withTLBDefaults fills unset TLB geometry with the Table-1 sizes. It is
// the single source of the defaults: DefaultConfig derives its published
// values from it and New normalizes every incoming Config through it, so a
// zero Config can never silently diverge from the documented machine.
func (cfg Config) withTLBDefaults() Config {
	if cfg.TLBL1Small == 0 {
		cfg.TLBL1Small, cfg.TLBL1Huge, cfg.TLBL2 = 64, 32, 2048
	}
	if cfg.TLBL2Huge == 0 {
		cfg.TLBL2Huge = cfg.TLBL2
	}
	return cfg
}

// DefaultConfig matches Table 1 at 2 GHz.
func DefaultConfig() Config {
	return Config{
		Cache:       cache.DefaultConfig(),
		DRAM:        dram.DefaultConfig(),
		IssueWidth:  4,
		DataOverlap: 0.6,
	}.withTLBDefaults()
}

// ScaledConfig is the machine model the experiment harness uses: workload
// footprints are scaled ~50× down from the paper's testbed (124 GB → a few
// GB), so every SRAM structure that the paper sizes against the footprint
// scales with it — caches, TLBs, and the radix PWC — preserving the
// paper's working-set-to-capacity ratios. The LVM walk cache deliberately
// stays at its Table-1 size of 16 entries: the learned index's size is
// footprint-independent (§7.3), and keeping the LWC fixed is precisely the
// property under test.
func ScaledConfig() Config {
	cfg := DefaultConfig()
	// Paper ratios at 124 GB: L2 1 MB (1:124000), L3 2 MB/core (1:62000),
	// L2 TLB reach 8 MB (1:15500). At ~4 GB footprints the proportional
	// sizes are L2 32 KB, L3 64 KB, L2 TLB 128 entries per size. The L1
	// cache keeps a functional minimum (16 KB).
	cfg.Cache.L1 = cache.LevelConfig{SizeBytes: 16 << 10, Ways: 8, LatencyCycles: 1}
	cfg.Cache.L2 = cache.LevelConfig{SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 20}
	cfg.Cache.L3 = cache.LevelConfig{SizeBytes: 64 << 10, Ways: 16, LatencyCycles: 56}
	// 4 KB TLB reach ratio 1:15500 and 2 MB reach ratio 1:19 at the
	// paper's scale map to 128 and 32 entries here.
	cfg.TLBL1Small = 16
	cfg.TLBL1Huge = 8
	cfg.TLBL2 = 128
	cfg.TLBL2Huge = 32
	return cfg
}

// ScaledHW returns the walk-cache sizing for ScaledConfig: the radix PWC
// scales to 8 entries per level — still ~4 generous versus the strict
// footprint-proportional size (Table 1's 32×2MB reach against a 124 GB
// footprint is 1:1200; 8×2MB against ~2 GB is 1:128), and it lands radix's
// PDE miss rates inside the paper's reported 59.7–99.6% band. The LWC
// stays at its Table-1 16 entries — footprint-independence is LVM's claim
// under test.
func ScaledHW() (pwcEntriesPerLevel, lwcEntries int) { return 8, 16 }

// Result carries the metrics every figure of §7 is derived from.
type Result struct {
	Workload string
	Scheme   string

	Instructions uint64
	Accesses     uint64
	Cycles       float64

	// MMU overhead components (Figure 10): cycles spent translating.
	TLBCycles  float64
	WalkCycles float64

	// Walks and page-walk memory traffic (Figure 11).
	Walks    uint64
	WalkRefs uint64

	// TLB behaviour.
	L1TLBMisses uint64
	L2TLBMisses uint64
	L2TLBMiss   float64 // rate

	// Cache behaviour (Figure 12).
	L2MPKI, L3MPKI float64
	L1MPKI         float64
	DRAMAccesses   uint64

	// Translation faults (accesses to unmapped pages; should be zero).
	Faults uint64

	// Metrics is the full component snapshot taken when the run finished —
	// every counter the scalar fields above are derived from, plus the
	// derived rates as gauges, under the stable dot-namespaced schema
	// (tlb.*, cache.*, dram.*, walk.*, run.*). It is what lvmbench -json
	// serializes per run.
	Metrics metrics.Set
}

// Snapshot implements metrics.Source over the finished run.
func (r Result) Snapshot() metrics.Set { return r.Metrics }

// MMUCycles returns the total translation overhead.
func (r Result) MMUCycles() float64 { return r.TLBCycles + r.WalkCycles }

// CPU is one simulated core with private TLBs and caches.
type CPU struct {
	cfg    Config
	tlbs   *tlb.Hierarchy
	caches *cache.Hierarchy
	walker mmu.Walker
}

// New creates a core bound to a scheme walker.
func New(cfg Config, walker mmu.Walker) *CPU {
	cfg = cfg.withTLBDefaults()
	return &CPU{
		cfg:    cfg,
		tlbs:   tlb.NewHierarchySized(cfg.TLBL1Small, cfg.TLBL1Huge, cfg.TLBL2, cfg.TLBL2Huge),
		caches: cache.New(cfg.Cache, dram.New(cfg.DRAM)),
		walker: walker,
	}
}

// TLBs exposes the TLB hierarchy for inspection.
func (c *CPU) TLBs() *tlb.Hierarchy { return c.tlbs }

// walkLatency charges a walk's memory requests to the cache hierarchy:
// groups are sequential, requests within a group run in parallel (their
// latency is the max). The outcome's trace is a view into the walker's
// buffer, consumed here before the next walk can reset it.
//
// The returned pair splits the walk at the verify boundary: critical is the
// resolve prefix the data access must wait for, verify the overlappable
// suffix (zero for traces without a verify region). For a no-verify trace
// every group accrues into critical through the single accumulator below, in
// group order — the exact float-operation sequence of the pre-overlap model,
// which is what keeps the seven non-speculative schemes bit-identical.
func (c *CPU) walkLatency(out mmu.Outcome) (critical, verify float64) {
	critical = float64(out.WalkCacheCycles)
	vstart := out.CriticalGroups()
	for gi, groups := 0, out.NumGroups(); gi < groups; gi++ {
		groupMax := 0
		for _, pa := range out.Group(gi) {
			if l := c.caches.Access(pa, true); l > groupMax {
				groupMax = l
			}
		}
		if gi < vstart {
			critical += float64(groupMax)
		} else {
			verify += float64(groupMax)
		}
	}
	return critical, verify
}

// translate charges the TLB lookup and, on an L2 TLB miss, the hardware
// page walk — the translation accounting shared by step and stepMidgard.
// Cycle components accrue onto res and *lat in arrival order (so latency
// sums stay bit-identical wherever they are accumulated); it returns the
// translation, the walk's pending verify latency (the overlappable suffix,
// zero for non-speculative schemes — the caller charges its exposed excess
// over the data access), and whether the access faulted on an unmapped
// page. A faulting walk has nothing to overlap with, so its verify suffix
// is charged here in full.
func (c *CPU) translate(asid uint16, v addr.VPN, res *Result, lat *float64) (pte.Entry, float64, bool) {
	tr, hit := c.tlbs.Lookup(asid, v)
	res.TLBCycles += float64(tr.Latency)
	res.Cycles += float64(tr.Latency)
	*lat += float64(tr.Latency)
	entry := tr.Entry
	verify := 0.0
	if !hit {
		res.L2TLBMisses++
		out := c.walker.Walk(asid, v)
		res.Walks++
		res.WalkRefs += uint64(out.Refs())
		wlat, wver := c.walkLatency(out)
		res.WalkCycles += wlat
		res.Cycles += wlat
		*lat += wlat
		if !out.Found {
			if wver != 0 {
				res.WalkCycles += wver
				res.Cycles += wver
				*lat += wver
			}
			res.Faults++
			return 0, 0, true
		}
		verify = wver
		entry = out.Entry
		c.tlbs.Fill(asid, v, entry)
	}
	if !tr.HitL1 {
		res.L1TLBMisses++
	}
	return entry, verify, false
}

// Run simulates a trace for one process (ASID) and returns the metrics.
func (c *CPU) Run(asid uint16, w *workload.Workload) Result {
	return c.run(asid, w, runOpts{})
}

// RunFrom simulates the trace suffix starting at access index start and
// returns metrics covering only that measured region: component counters
// are reported as the delta over the run (float cycle accounting starts at
// zero anyway). RunFrom(0) is exactly Run. Pair it with FastForward to
// warm state on a prefix and measure the rest.
func (c *CPU) RunFrom(asid uint16, w *workload.Workload, start int) Result {
	if start < 0 {
		start = 0
	}
	if start > len(w.Accesses) {
		start = len(w.Accesses)
	}
	return c.run(asid, w, runOpts{start: start})
}

// runOpts selects run's optional behaviours; the zero value is a plain
// full-trace run.
type runOpts struct {
	// start is the first access index simulated (the measured region is
	// [start, len(Accesses))). When start > 0, finish reports component
	// counters as deltas over the run.
	start int
	// hook injects per-access extra cycles (OS work); it runs before the
	// access touches the TLB.
	hook func(i int) float64
	// lats, when non-nil, receives access i's end-to-end latency at
	// lats[i-start]; it must have length len(Accesses)-start.
	lats []float64
	// every cuts interval windows at access-count multiples (0 = none);
	// cut is invoked at each boundary.
	every int
	cut   func(end int)
}

// run is the translation loop behind Run, RunFrom, RunTail and
// RunIntervals: one step per access, in trace order.
func (c *CPU) run(asid uint16, w *workload.Workload, o runOpts) Result {
	res := Result{Workload: w.Name, Scheme: c.walker.Name()}
	var base metrics.Set
	if o.start > 0 {
		base = c.Snapshot()
	}
	instrs := w.InstrsPerAccess
	for i := o.start; i < len(w.Accesses); i++ {
		extra := 0.0
		if o.hook != nil {
			extra = o.hook(i)
		}
		lat := c.step(asid, w.Accesses[i], instrs, extra, &res)
		if o.lats != nil {
			o.lats[i-o.start] = lat
		}
		if o.every > 0 && (i+1)%o.every == 0 {
			o.cut(i + 1)
		}
	}
	c.finish(&res, base, o.start > 0)
	return res
}

// FastForward streams the first n accesses of the trace through the
// machine — TLBs, walk caches, cache tags, DRAM rows — stepping each into a
// discarded Result: component state afterwards is exactly what a timing run
// over the same prefix leaves behind, and the caller's Result sees none of
// it. It returns the number of accesses consumed (min(n, len(trace)));
// follow with RunFrom to measure from warmed state.
func (c *CPU) FastForward(asid uint16, w *workload.Workload, n int) int {
	n = min(max(n, 0), len(w.Accesses))
	var discard Result
	for i := 0; i < n; i++ {
		c.step(asid, w.Accesses[i], w.InstrsPerAccess, 0, &discard)
	}
	return n
}

// step runs one access through the machine model — the per-access
// translate-then-access sequence every run, session and fast-forward loops
// over. Each cycle
// component is charged to res.Cycles as it accrues; the return value is
// the access's end-to-end latency (the same components summed in accrual
// order), which the tail study consumes per request.
func (c *CPU) step(asid uint16, a workload.Access, instrs int, extra float64, res *Result) float64 {
	res.Instructions += uint64(instrs)
	res.Accesses++
	retire := float64(instrs) / c.cfg.IssueWidth
	lat := retire + extra
	res.Cycles += retire
	res.Cycles += extra

	v := addr.VPNOf(a.VA)

	if c.cfg.Midgard {
		return lat + c.stepMidgard(asid, a, v, res)
	}

	// 1. TLB, and on an L2 TLB miss 2. the page walk.
	entry, verify, fault := c.translate(asid, v, res, &lat)
	if fault {
		return lat
	}

	// 3. Data access, overlapped with the walk's verify suffix: the access
	// proceeds on the speculative translation while the verify walk runs, so
	// the pair costs max(verify, access) — only the suffix's excess over the
	// exposed data latency is charged, as walk cycles. Non-speculative
	// schemes have verify == 0 and take no extra float operations here.
	pa := addr.Translate(a.VA, entry.PPN(), entry.Size())
	dataLat := float64(c.caches.Access(pa, false)) * (1 - c.cfg.DataOverlap)
	if verify > dataLat {
		exposed := verify - dataLat
		res.WalkCycles += exposed
		res.Cycles += exposed
		lat += exposed
	}
	res.Cycles += dataLat
	return lat + dataLat
}

// stepMidgard handles one access in the Midgard model: the cache hierarchy
// is indexed by the intermediate (virtual) address, so hits need no
// translation at all; only LLC misses trigger a radix walk to reach DRAM.
// It returns the latency charged beyond the instruction-retire component.
func (c *CPU) stepMidgard(asid uint16, a workload.Access, v addr.VPN, res *Result) float64 {
	// VMA-level Midgard translation is a handful of registers: free.
	//lint:allow addrtypes Midgard's cache hierarchy is indexed by the intermediate (virtual) address, so the VA bits are reinterpreted as the cache key on purpose
	raw := c.caches.Access(addr.PA(a.VA), false)
	llcMiss := raw > c.cfg.Cache.L3.LatencyCycles
	dataLat := float64(raw) * (1 - c.cfg.DataOverlap)
	res.Cycles += dataLat
	lat := dataLat
	if !llcMiss {
		return lat
	}
	// LLC miss: translate to reach memory (backside radix walk). The data
	// access already completed, so a verify suffix would have nothing to
	// overlap with — charge it in full (radix walks never carry one; verify
	// stays zero on this path today).
	_, verify, _ := c.translate(asid, v, res, &lat)
	if verify != 0 {
		res.WalkCycles += verify
		res.Cycles += verify
		lat += verify
	}
	return lat
}

// Snapshot implements metrics.Source: the uniform component snapshot of
// the whole core — TLB hierarchy under "tlb.", cache hierarchy under
// "cache.", memory model under "dram.", and the scheme walker's walk
// caches under "walk." (every scheme walker is a metrics.Source).
func (c *CPU) Snapshot() metrics.Set {
	var s metrics.Set
	s.Merge("tlb", c.tlbs.Snapshot())
	s.Merge("cache", c.caches.Snapshot())
	s.Merge("dram", c.caches.DRAM().Snapshot())
	if src, ok := c.walker.(metrics.Source); ok {
		s.Merge("walk", src.Snapshot())
	}
	return s
}

var _ metrics.Source = (*CPU)(nil)

// finish derives the Result's rate and traffic fields from the component
// snapshot — Result is a thin derivation over the metrics layer, not a
// separate accounting. In delta mode (RunFrom with start > 0) component
// counters are reported relative to base, the snapshot taken when the
// measured region began; component snapshots emit counters only (no
// gauges), so the subtraction is lossless, and the derived rates below are
// recomputed from the deltas.
func (c *CPU) finish(res *Result, base metrics.Set, delta bool) {
	s := c.Snapshot()
	if delta {
		s = s.Delta(base)
	}
	res.L2TLBMiss = stats.Ratio(s.Uint("tlb.l2.misses"),
		s.Uint("tlb.l2.hits")+s.Uint("tlb.l2.misses"))
	mpki := func(level string) float64 {
		return stats.PerKilo(s.Uint("cache."+level+".demand_misses")+
			s.Uint("cache."+level+".walk_misses"), res.Instructions)
	}
	res.L1MPKI = mpki("l1")
	res.L2MPKI = mpki("l2")
	res.L3MPKI = mpki("l3")
	res.DRAMAccesses = s.Uint("dram.accesses")

	// Fold the run-level counters and derived rates into the snapshot so a
	// Result carries the complete, self-describing metric set.
	s.Counter("run.instructions", res.Instructions)
	s.Counter("run.accesses", res.Accesses)
	s.Counter("run.faults", res.Faults)
	s.Counter("run.l1_tlb_misses", res.L1TLBMisses)
	s.Counter("run.l2_tlb_misses", res.L2TLBMisses)
	s.Counter("walk.walks", res.Walks)
	s.Counter("walk.refs", res.WalkRefs)
	s.Gauge("run.cycles", res.Cycles)
	s.Gauge("run.tlb_cycles", res.TLBCycles)
	s.Gauge("run.walk_cycles", res.WalkCycles)
	s.Gauge("tlb.l2.miss_rate", res.L2TLBMiss)
	s.Gauge("cache.l1.mpki", res.L1MPKI)
	s.Gauge("cache.l2.mpki", res.L2MPKI)
	s.Gauge("cache.l3.mpki", res.L3MPKI)
	res.Metrics = s
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: %.0f cycles, MMU %.1f%% (walk %.1f%%), %.2f refs/walk, L2TLB miss %.1f%%, L2 MPKI %.2f, L3 MPKI %.2f",
		r.Workload, r.Scheme, r.Cycles,
		100*r.MMUCycles()/r.Cycles, 100*r.WalkCycles/r.Cycles,
		stats.Ratio(r.WalkRefs, r.Walks),
		100*r.L2TLBMiss, r.L2MPKI, r.L3MPKI)
}
