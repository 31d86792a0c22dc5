package experiments

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/hashpt"
	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/sim"
	"lvm/internal/stats"
	"lvm/internal/vas"
	"lvm/internal/workload"
)

// CollisionResult carries the §7.3 collision comparison.
type CollisionResult struct {
	LVM4K, LVMTHP   map[string]float64
	Hash4K, HashTHP map[string]float64
	AvgLVM4K        float64
	AvgLVMTHP       float64
	AvgHash4K       float64
	AvgHashTHP      float64
	AvgExtraPerColl float64
	Table           *stats.Table
}

// collisionHashBaseline is the measured bespoke half of the §7.3
// collision study: collision rates of the Blake2 open-addressing table at
// load 0.6, per workload, for 4 KB and THP translations.
type collisionHashBaseline struct {
	Hash4K  map[string]float64 `json:"hash_4k"`
	HashTHP map[string]float64 `json:"hash_thp"`
}

// noPhysBytes is the cost of a measurement that simulates no physical
// memory.
func noPhysBytes(Config) (uint64, error) { return 0, nil }

// measureCollisionBaseline inserts every workload's translations into an
// open-addressing Blake2 table at load 0.6 and records collision rates.
func (r *Runner) measureCollisionBaseline() (collisionHashBaseline, error) {
	res := collisionHashBaseline{Hash4K: map[string]float64{}, HashTHP: map[string]float64{}}
	for _, thp := range []bool{false, true} {
		for _, name := range r.Cfg.Workloads {
			w, err := r.Workload(name)
			if err != nil {
				return collisionHashBaseline{}, err
			}
			trs := w.Space.Translations(thp)
			h := hashpt.New(len(trs), hashpt.DefaultLoadFactor)
			for _, tr := range trs {
				if _, err := h.Insert(tr.VPN, entryFor(tr)); err != nil {
					return collisionHashBaseline{}, fmt.Errorf("collisions %s thp=%t: hash insert: %w", name, thp, err)
				}
			}
			if thp {
				res.HashTHP[name] = h.CollisionRate()
			} else {
				res.Hash4K[name] = h.CollisionRate()
			}
		}
	}
	return res, nil
}

// collisionRates reproduces §7.3's collision study: LVM vs a Blake2 hash
// table at load factor 0.6. Paper: LVM 0.2%/0.6%, hash 22%/19%; extra
// accesses per collision avg 2.36 under C_err = 3. LVM's side comes from
// the run matrix; the hash baseline is the experiment's measurement.
func (r *Runner) collisionRates(base collisionHashBaseline) (Result, error) {
	res := CollisionResult{
		LVM4K: map[string]float64{}, LVMTHP: map[string]float64{},
		Hash4K: base.Hash4K, HashTHP: base.HashTHP,
	}
	tb := stats.NewTable("workload", "pages", "lvm", "blake2 hash", "extra/coll")
	var l4, lt, h4, ht, extra []float64
	for _, thp := range []bool{false, true} {
		for _, name := range r.Cfg.Workloads {
			lv, err := r.Run(name, oskernel.SchemeLVM, thp)
			if err != nil {
				return Result{}, err
			}
			label := "4KB"
			var hc float64
			if thp {
				label = "THP"
				hc = base.HashTHP[name]
				res.LVMTHP[name] = lv.CollisionRate
				lt = append(lt, lv.CollisionRate)
				ht = append(ht, hc)
			} else {
				hc = base.Hash4K[name]
				res.LVM4K[name] = lv.CollisionRate
				l4 = append(l4, lv.CollisionRate)
				h4 = append(h4, hc)
			}
			if lv.ExtraPerColl > 0 {
				extra = append(extra, lv.ExtraPerColl)
			}
			tb.AddRow(name, label, pct(lv.CollisionRate), pct(hc), lv.ExtraPerColl)
		}
	}
	res.AvgLVM4K, res.AvgLVMTHP = stats.Mean(l4), stats.Mean(lt)
	res.AvgHash4K, res.AvgHashTHP = stats.Mean(h4), stats.Mean(ht)
	res.AvgExtraPerColl = stats.Mean(extra)
	res.Table = tb
	return Result{
		Table: tb,
		Summary: fmt.Sprintf("averages: LVM %.2f%%/%.2f%%, hash %.1f%%/%.1f%%, extra/coll %.2f",
			100*res.AvgLVM4K, 100*res.AvgLVMTHP, 100*res.AvgHash4K, 100*res.AvgHashTHP, res.AvgExtraPerColl),
		Raw: res,
	}, nil
}

// entryFor builds a placeholder entry for the hash-table baseline (the
// collision study depends only on key placement, not on the PPN).
func entryFor(tr vas.Translation) pte.Entry { return pte.New(1, tr.Size) }

// RetrainResult carries the §7.3 maintenance study.
type RetrainResult struct {
	// Retrain-class events (retrains + rebuilds) per workload run,
	// including a growth phase. Paper: at most 3, average 2 (measured
	// on the authors' OS prototype over complete application runtimes).
	Events map[string]uint64
	Max    uint64
	Avg    float64
	// Management cycles — initialization plus ongoing maintenance, as the
	// paper counts them — as a fraction of a 1-billion-instruction
	// simulation window (the paper's region of interest). Paper: 1.17%
	// average, 1.91% peak (dfs); THP < 0.01%.
	MgmtFraction map[string]float64
	MgmtTHP      map[string]float64
	AvgMgmt      float64
	Table        *stats.Table
}

// paperWindowInstrs is the simulated region of interest in §6: "we execute
// 1 billion instructions". Our traces sample fewer instructions, so the
// management fraction scales run cycles up to this window.
const paperWindowInstrs = 1e9

// retrainStats reproduces §7.3's retraining study. Two measurements per
// workload, matching the paper's two methodologies:
//
//   - Retrain events: launch, then grow the heap by ~12% page by page
//     past the initially-trained span (the paper ran applications
//     end-to-end on its OS prototype). Events must stay in the low
//     single digits.
//   - Management overhead: all management cycles as they occur —
//     initialization plus growth — against a 1-billion-instruction
//     execution window, the paper's simulated region of interest. Our
//     traces sample fewer instructions, so run cycles are scaled up to
//     that window at the workload's measured CPI.
func (r *Runner) retrainStats(growth retrainGrowth) (Result, error) {
	res := RetrainResult{
		Events:       growth.Events,
		MgmtFraction: map[string]float64{},
		MgmtTHP:      map[string]float64{},
	}
	tb := stats.NewTable("workload", "retrain events", "mgmt 4KB", "mgmt THP")
	var evs, fracs []float64
	for _, name := range r.Cfg.Workloads {
		events := growth.Events[name]
		evs = append(evs, float64(events))
		// Management fraction over the paper's 1B-instruction window.
		run4k, err := r.Run(name, oskernel.SchemeLVM, false)
		if err != nil {
			return Result{}, err
		}
		frac := mgmtFraction(growth.Mgmt4K[name], run4k.Sim)
		res.MgmtFraction[name] = frac
		fracs = append(fracs, frac)
		runTHP, err := r.Run(name, oskernel.SchemeLVM, true)
		if err != nil {
			return Result{}, err
		}
		thpFrac := mgmtFraction(growth.MgmtTHP[name], runTHP.Sim)
		res.MgmtTHP[name] = thpFrac
		tb.AddRow(name, events, pct(frac), pct(thpFrac))
	}
	for _, e := range evs {
		if uint64(e) > res.Max {
			res.Max = uint64(e)
		}
	}
	res.Avg = stats.Mean(evs)
	res.AvgMgmt = stats.Mean(fracs)
	res.Table = tb
	return Result{
		Table: tb,
		Summary: fmt.Sprintf("max events %d, avg %.1f, avg mgmt %.2f%%",
			res.Max, res.Avg, 100*res.AvgMgmt),
		Raw: res,
	}, nil
}

// retrainGrowth is the measured bespoke half of the retraining study:
// retrain-class events and raw management cycles per workload from the
// growth-phase launches. The management *fractions* are derived at render
// time from these cycles and the run matrix.
type retrainGrowth struct {
	Events  map[string]uint64 `json:"events"`
	Mgmt4K  map[string]uint64 `json:"mgmt_4k"`
	MgmtTHP map[string]uint64 `json:"mgmt_thp"`
}

// largestRunBytes is the largest run cost among the sweep's workloads: the
// cost of a measurement that launches them one at a time.
func largestRunBytes(cfg Config) (uint64, error) {
	var most uint64
	for _, name := range cfg.Workloads {
		c, err := cfg.estimatedRunBytes(name)
		if err != nil {
			return 0, err
		}
		most = max(most, c)
	}
	return most, nil
}

// measureRetrainGrowth launches each workload, grows its heap ~12% past
// the initially-trained span, and records the resulting retrain events and
// management cycles (4 KB and THP launches).
func (r *Runner) measureRetrainGrowth() (retrainGrowth, error) {
	res := retrainGrowth{
		Events: map[string]uint64{}, Mgmt4K: map[string]uint64{}, MgmtTHP: map[string]uint64{},
	}
	for _, name := range r.Cfg.Workloads {
		w, err := r.Workload(name)
		if err != nil {
			return retrainGrowth{}, err
		}
		sys, p, err := launchScaled(r.physFor(w), oskernel.SchemeLVM, w.Space, false)
		if err != nil {
			return retrainGrowth{}, fmt.Errorf("retrain %s: launch: %w", name, err)
		}
		// Growth phase: extend the heap tail by ~12% beyond its current
		// high-water mark (brk/mmap growth past the initially-trained span).
		heap, err := heapOf(w.Space)
		if err != nil {
			return retrainGrowth{}, fmt.Errorf("retrain %s: %w", name, err)
		}
		grow := heap.Span / 8
		start := heap.Mapped[len(heap.Mapped)-1] + 1
		for i := 0; i < grow; i++ {
			v := start + addr.VPN(i)
			if _, ok := sys.SoftwareLookup(1, v); ok {
				continue // another region's page: skip, keep extending
			}
			if err := sys.MapPage(1, v, addr.Page4K); err != nil {
				break
			}
		}
		st := p.LVMIndex().Stats()
		res.Events[name] = st.Retrains + st.Rebuilds
		res.Mgmt4K[name] = p.MgmtCycles
		// THP: far fewer translations to manage (paper: < 0.01%).
		_, tp, err := launchScaled(r.physFor(w), oskernel.SchemeLVM, w.Space, true)
		if err != nil {
			return retrainGrowth{}, fmt.Errorf("retrain %s thp: launch: %w", name, err)
		}
		res.MgmtTHP[name] = tp.MgmtCycles
	}
	return res, nil
}

// mgmtFraction scales a sampled run up to the paper's 1B-instruction
// region of interest at the measured CPI and reports management cycles as
// a fraction of that window.
func mgmtFraction(mgmtCycles uint64, run sim.Result) float64 {
	if run.Instructions == 0 {
		return 0
	}
	window := run.Cycles * paperWindowInstrs / float64(run.Instructions)
	return float64(mgmtCycles) / (window + float64(mgmtCycles))
}

// MemoryOverheadResult carries §7.3's memory-consumption comparison.
type MemoryOverheadResult struct {
	// Overhead beyond 8 B per translation, per scheme, for each workload.
	LVM, ECPT, Radix map[string]uint64
	Table            *stats.Table
}

// memoryOverhead reproduces §7.3: extra memory each structure uses beyond
// the 8-byte-per-translation minimum. Paper: LVM ≤ 1.3× minimum (e.g.
// +12 MB at 20 GB); ECPT +27 MB.
func (r *Runner) memoryOverhead() (Result, error) {
	res := MemoryOverheadResult{
		LVM: map[string]uint64{}, ECPT: map[string]uint64{}, Radix: map[string]uint64{},
	}
	tb := stats.NewTable("workload", "lvm overhead", "ecpt overhead", "radix overhead")
	for _, name := range r.Cfg.Workloads {
		lv, err := r.Run(name, oskernel.SchemeLVM, false)
		if err != nil {
			return Result{}, err
		}
		ec, err := r.Run(name, oskernel.SchemeECPT, false)
		if err != nil {
			return Result{}, err
		}
		rad, err := r.Run(name, oskernel.SchemeRadix, false)
		if err != nil {
			return Result{}, err
		}
		res.LVM[name], res.ECPT[name], res.Radix[name] = lv.OverheadBytes, ec.OverheadBytes, rad.OverheadBytes
		tb.AddRow(name, byteLabel(lv.OverheadBytes), byteLabel(ec.OverheadBytes), byteLabel(rad.OverheadBytes))
	}
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}

// FragmentationResult carries §7.3's fragmentation robustness study.
type FragmentationResult struct {
	// Speedup of LVM over radix per fragmentation level.
	Speedups map[string]float64
	// LWC hit rates per level (paper: stays > 99%).
	LWCHits map[string]float64
	Table   *stats.Table `json:"-"`
}

// fragmentationLabels names the sweep's fragmentation levels in print
// order; measureFragmentation's preparation steps follow the same order.
var fragmentationLabels = []string{"fresh", "cap 256KB", "FMFI 0.8", "FMFI 0.9"}

// agedPhysBytes sizes an aged memory for a workload of footprint fp.
// Fragmented memories need headroom: aged memories keep 25% free, so size
// at 4× footprint.
func (c Config) agedPhysBytes(fp uint64) uint64 { return 4*fp + c.PhysSlackBytes }

// agedBytes is the cost of a measurement on aged memories for the
// translation-bound workload, made one at a time (fragmentation,
// priorwork).
func agedBytes(cfg Config) (uint64, error) {
	fp, err := workload.EstimateFootprintBytes(translationBoundWorkload(cfg), cfg.Params)
	return cfg.agedPhysBytes(fp), err
}

// measureFragmentation runs the bespoke radix/LVM pairs on memories aged
// to each fragmentation level.
func (r *Runner) measureFragmentation() (FragmentationResult, error) {
	res := FragmentationResult{Speedups: map[string]float64{}, LWCHits: map[string]float64{}}
	name := translationBoundWorkload(r.Cfg)
	w, err := r.Workload(name)
	if err != nil {
		return FragmentationResult{}, err
	}

	preps := []func(*phys.Memory){
		func(m *phys.Memory) {},
		func(m *phys.Memory) {
			m.Fragment(r.Cfg.Params.Seed, phys.DatacenterFragmentation)
			m.SetContiguityCap(6)
		},
		func(m *phys.Memory) { m.FragmentToFMFI(r.Cfg.Params.Seed, 9, 0.8) },
		func(m *phys.Memory) { m.FragmentToFMFI(r.Cfg.Params.Seed, 9, 0.9) },
	}
	for i, label := range fragmentationLabels {
		prep := preps[i]
		run := func(scheme oskernel.Scheme) (cycles, hit float64, err error) {
			mem := phys.New(r.Cfg.agedPhysBytes(w.FootprintBytes()))
			prep(mem)
			sys, _, err := launchScaled(mem, scheme, w.Space, false)
			if err != nil {
				return 0, 0, fmt.Errorf("fragmentation %s/%s: launch: %w", label, scheme, err)
			}
			cpu := sim.New(r.Cfg.Sim, sys.Walker())
			cycles = cpu.Run(1, w).Cycles
			if lw := sys.LVMWalker(); lw != nil {
				hit = lw.LWC().HitRate()
			}
			return cycles, hit, nil
		}
		radCycles, _, err := run(oskernel.SchemeRadix)
		if err != nil {
			return FragmentationResult{}, err
		}
		lvmCycles, hit, err := run(oskernel.SchemeLVM)
		if err != nil {
			return FragmentationResult{}, err
		}
		res.Speedups[label] = speedup(radCycles, lvmCycles)
		res.LWCHits[label] = hit
	}
	return res, nil
}

// fragmentationRobustness reproduces §7.3's fragmentation sweep: LVM with
// contiguity capped at 256 KB and at FMFI 0.8/0.9 must keep its speedup
// and LWC hit rate. The sweep is entirely bespoke: the experiment's
// measurement is the whole result.
func (r *Runner) fragmentationRobustness(res FragmentationResult) (Result, error) {
	tb := stats.NewTable("environment", "lvm speedup vs radix", "lwc hit")
	for _, label := range fragmentationLabels {
		tb.AddRow(label, res.Speedups[label], pct(res.LWCHits[label]))
	}
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}

// WalkCacheResult carries §7.2's miss-rate characterization.
type WalkCacheResult struct {
	L2TLBMiss  map[string]float64
	PWCPDEMiss map[string]float64
	LWCHit     map[string]float64
	Table      *stats.Table
}

// walkCacheMissRates reproduces §7.2: L2 TLB miss rates (57.5–99.4%,
// scheme-independent), radix PMD-level PWC miss rates (59.7–99.6%), and
// LVM LWC hit rates (> 99%).
func (r *Runner) walkCacheMissRates() (Result, error) {
	res := WalkCacheResult{
		L2TLBMiss: map[string]float64{}, PWCPDEMiss: map[string]float64{}, LWCHit: map[string]float64{},
	}
	tb := stats.NewTable("workload", "L2 TLB miss", "radix PDE miss", "LWC hit")
	for _, name := range r.Cfg.Workloads {
		rad, err := r.Run(name, oskernel.SchemeRadix, false)
		if err != nil {
			return Result{}, err
		}
		lv, err := r.Run(name, oskernel.SchemeLVM, false)
		if err != nil {
			return Result{}, err
		}
		res.L2TLBMiss[name] = rad.Sim.L2TLBMiss
		res.PWCPDEMiss[name] = rad.PWCPDEMissRate
		res.LWCHit[name] = lv.LWCHitRate
		tb.AddRow(name, pct(rad.Sim.L2TLBMiss), pct(rad.PWCPDEMissRate), pct(lv.LWCHitRate))
	}
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}

// PTWL1Result carries §7.2's PTW-connection study.
type PTWL1Result struct {
	// Speedups of LVM over radix when walkers connect to L1 vs L2.
	SpeedupL1, SpeedupL2 float64
	// L1 MPKI increase from moving the PTW to L1 (radix vs LVM).
	RadixL1MPKIIncrease, LVML1MPKIIncrease float64
	// Absolute L1 MPKI per scheme at each walker connection point.
	RadixL1MPKIAtL2, RadixL1MPKIAtL1 float64
	LVML1MPKIAtL2, LVML1MPKIAtL1     float64
	Table                            *stats.Table `json:"-"`
}

// ptwl1Bytes is measurePTWL1's cost: its four launches, one at a time.
func ptwl1Bytes(cfg Config) (uint64, error) {
	return cfg.estimatedRunBytes(translationBoundWorkload(cfg))
}

// measurePTWL1 runs the four bespoke configurations (radix/LVM × walker
// into L2/L1) and derives the study's scalars.
func (r *Runner) measurePTWL1() (PTWL1Result, error) {
	var res PTWL1Result
	name := translationBoundWorkload(r.Cfg)
	w, err := r.Workload(name)
	if err != nil {
		return PTWL1Result{}, err
	}
	type out struct{ cycles, l1mpki float64 }
	run := func(scheme oskernel.Scheme, entry int) (out, error) {
		sys, _, err := launchScaled(r.physFor(w), scheme, w.Space, false)
		if err != nil {
			return out{}, fmt.Errorf("ptw-l1 %s entry=L%d: launch: %w", scheme, entry, err)
		}
		cfg := r.Cfg.Sim
		cfg.Cache.WalkEntryLevel = entry
		cpu := sim.New(cfg, sys.Walker())
		res := cpu.Run(1, w)
		return out{res.Cycles, res.L1MPKI}, nil
	}
	radL2, err := run(oskernel.SchemeRadix, 2)
	if err != nil {
		return PTWL1Result{}, err
	}
	radL1, err := run(oskernel.SchemeRadix, 1)
	if err != nil {
		return PTWL1Result{}, err
	}
	lvmL2, err := run(oskernel.SchemeLVM, 2)
	if err != nil {
		return PTWL1Result{}, err
	}
	lvmL1, err := run(oskernel.SchemeLVM, 1)
	if err != nil {
		return PTWL1Result{}, err
	}
	res.SpeedupL2 = speedup(radL2.cycles, lvmL2.cycles)
	res.SpeedupL1 = speedup(radL1.cycles, lvmL1.cycles)
	res.RadixL1MPKIIncrease = radL1.l1mpki/radL2.l1mpki - 1
	res.LVML1MPKIIncrease = lvmL1.l1mpki/lvmL2.l1mpki - 1
	res.RadixL1MPKIAtL2, res.RadixL1MPKIAtL1 = radL2.l1mpki, radL1.l1mpki
	res.LVML1MPKIAtL2, res.LVML1MPKIAtL1 = lvmL2.l1mpki, lvmL1.l1mpki
	return res, nil
}

// ptwl1Connection reproduces §7.2's study: connecting page walkers to the
// L1 cache. Paper: LVM +11% (L1) vs +14% (L2); L1 MPKI rises 59% for
// radix but only 38% for LVM. The study is entirely bespoke: the
// experiment's measurement is the whole result.
func (r *Runner) ptwl1Connection(res PTWL1Result) (Result, error) {
	tb := stats.NewTable("config", "lvm speedup", "radix L1 MPKI", "lvm L1 MPKI")
	tb.AddRow("PTW->L2", res.SpeedupL2, res.RadixL1MPKIAtL2, res.LVML1MPKIAtL2)
	tb.AddRow("PTW->L1", res.SpeedupL1, res.RadixL1MPKIAtL1, res.LVML1MPKIAtL1)
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}

// MultiTenancyResult carries §7.1's stacked-workload study.
type MultiTenancyResult struct {
	// Per-workload LVM speedups, solo vs stacked (paper: within 0.5%).
	Solo, Stacked map[string]float64
	MaxDelta      float64
	Table         *stats.Table
}

// tenancyStacked is the measured bespoke half of the multi-tenancy
// study: cycles per "workload/scheme" measured on the shared system.
type tenancyStacked struct {
	Cycles map[string]float64 `json:"cycles"`
}

// tenancyBytes is measureTenancyStacked's cost: one shared memory for all
// tenants per scheme, the schemes one at a time.
func tenancyBytes(cfg Config) (uint64, error) {
	var total uint64
	for _, name := range tenancyNames(cfg) {
		fp, err := workload.EstimateFootprintBytes(name, cfg.Params)
		if err != nil {
			return 0, err
		}
		total += fp
	}
	return cfg.RunCostBytes(total), nil
}

// measureTenancyStacked launches the tenant workloads into one shared
// OS/phys memory per scheme, each on its own core, and measures cycles.
func (r *Runner) measureTenancyStacked() (tenancyStacked, error) {
	res := tenancyStacked{Cycles: map[string]float64{}}
	names := tenancyNames(r.Cfg)
	for _, scheme := range []oskernel.Scheme{oskernel.SchemeRadix, oskernel.SchemeLVM} {
		var total uint64
		for _, name := range names {
			w, err := r.Workload(name)
			if err != nil {
				return tenancyStacked{}, err
			}
			total += w.FootprintBytes()
		}
		mem := phys.New(r.Cfg.RunCostBytes(total))
		sys := newScaledSystem(mem, scheme)
		for i, name := range names {
			w, err := r.Workload(name)
			if err != nil {
				return tenancyStacked{}, err
			}
			if _, err := sys.Launch(uint16(i+1), w.Space, false); err != nil {
				return tenancyStacked{}, fmt.Errorf("multitenancy %s/%s asid=%d: launch: %w", name, scheme, i+1, err)
			}
		}
		for i, name := range names {
			w, err := r.Workload(name)
			if err != nil {
				return tenancyStacked{}, err
			}
			cpu := sim.New(r.Cfg.Sim, sys.Walker())
			res.Cycles[name+"/"+string(scheme)] = cpu.Run(uint16(i+1), w).Cycles
		}
	}
	return res, nil
}

// multiTenancy reproduces §7.1's multi-tenant study: workloads run on
// separate cores (private caches/TLBs per Table 1) with their own address
// spaces; per-workload speedups must match the solo runs. Solo numbers
// come from the run matrix; the stacked launches are the experiment's
// measurement.
func (r *Runner) multiTenancy(stacked tenancyStacked) (Result, error) {
	stackedCycles := stacked.Cycles
	res := MultiTenancyResult{Solo: map[string]float64{}, Stacked: map[string]float64{}}
	tb := stats.NewTable("workload", "solo speedup", "stacked speedup", "delta")
	names := tenancyNames(r.Cfg)
	for _, name := range names {
		soloBase, err := r.Run(name, oskernel.SchemeRadix, false)
		if err != nil {
			return Result{}, err
		}
		soloLVM, err := r.Run(name, oskernel.SchemeLVM, false)
		if err != nil {
			return Result{}, err
		}
		solo := speedup(soloBase.Sim.Cycles, soloLVM.Sim.Cycles)
		stacked := speedup(stackedCycles[name+"/radix"], stackedCycles[name+"/lvm"])
		res.Solo[name], res.Stacked[name] = solo, stacked
		d := stacked - solo
		if d < 0 {
			d = -d
		}
		if d > res.MaxDelta {
			res.MaxDelta = d
		}
		tb.AddRow(name, solo, stacked, d)
	}
	res.Table = tb
	return Result{
		Table:   tb,
		Summary: fmt.Sprintf("max delta: %.3f", res.MaxDelta),
		Raw:     res,
	}, nil
}

// PriorWorkResult carries the §7.5 comparisons.
type PriorWorkResult struct {
	// Speedups over radix for each scheme on the first workload.
	LVM, ECPT, ASAP, Midgard, FPT float64
	// FPT under fragmentation (paper: degrades toward radix).
	FPTFragmented float64
	Table         *stats.Table
}

// priorWork reproduces §7.5: ASAP (slower than ECPT and LVM from prefetch
// traffic), Midgard (+3% over radix; LVM ahead), and FPT (close behind LVM
// when unfragmented, degrading to radix under fragmentation).
func (r *Runner) priorWork(frag priorWorkFragmented) (Result, error) {
	var res PriorWorkResult
	tb := stats.NewTable("scheme", "speedup vs radix")
	name := translationBoundWorkload(r.Cfg)
	rad, err := r.Run(name, oskernel.SchemeRadix, false)
	if err != nil {
		return Result{}, err
	}
	base := rad.Sim.Cycles
	for _, sc := range []struct {
		scheme oskernel.Scheme
		dst    *float64
	}{
		{oskernel.SchemeLVM, &res.LVM},
		{oskernel.SchemeECPT, &res.ECPT},
		{oskernel.SchemeASAP, &res.ASAP},
		{oskernel.SchemeMidgard, &res.Midgard},
		{oskernel.SchemeFPT, &res.FPT},
	} {
		out, err := r.Run(name, sc.scheme, false)
		if err != nil {
			return Result{}, err
		}
		*sc.dst = speedup(base, out.Sim.Cycles)
	}

	// FPT under heavy fragmentation: 2MB table allocations fail. The
	// bespoke run is the experiment's measurement (raw cycles, so the
	// speedup is derived against the radix run of the matrix).
	res.FPTFragmented = speedup(base, frag.Cycles)

	tb.AddRow("lvm", res.LVM)
	tb.AddRow("ecpt", res.ECPT)
	tb.AddRow("asap", res.ASAP)
	tb.AddRow("midgard", res.Midgard)
	tb.AddRow("fpt", res.FPT)
	tb.AddRow("fpt (fragmented)", res.FPTFragmented)
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}

// priorWorkFragmented is the measured bespoke half of the §7.5 study:
// FPT's cycles on a heavily fragmented memory.
type priorWorkFragmented struct {
	Cycles float64 `json:"cycles"`
}

// measureFPTFragmented runs FPT on a datacenter-aged memory with
// contiguity capped at 256 KB.
func (r *Runner) measureFPTFragmented() (priorWorkFragmented, error) {
	name := translationBoundWorkload(r.Cfg)
	w, err := r.Workload(name)
	if err != nil {
		return priorWorkFragmented{}, err
	}
	mem := phys.New(r.Cfg.agedPhysBytes(w.FootprintBytes()))
	mem.Fragment(r.Cfg.Params.Seed, phys.DatacenterFragmentation)
	mem.SetContiguityCap(6)
	sys, _, err := launchScaled(mem, oskernel.SchemeFPT, w.Space, false)
	if err != nil {
		return priorWorkFragmented{}, fmt.Errorf("priorwork fpt fragmented: launch: %w", err)
	}
	cpu := sim.New(r.Cfg.Sim, sys.Walker())
	return priorWorkFragmented{Cycles: cpu.Run(1, w).Cycles}, nil
}

// translationBoundWorkload picks the most walk-intensive workload in the
// sweep (gups when present) so single-workload studies measure the regime
// where translation dominates. It is a pure function of the config so the
// planning phase can enumerate the same runs the compute phase will read.
func translationBoundWorkload(cfg Config) string {
	for _, n := range cfg.Workloads {
		if n == "gups" {
			return n
		}
	}
	return cfg.Workloads[0]
}

// --- small helpers ----------------------------------------------------------

func heapOf(s *vas.AddressSpace) (*vas.Region, error) {
	for i := range s.Regions {
		if s.Regions[i].Kind == vas.Heap {
			return &s.Regions[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: address space has no heap region")
}
