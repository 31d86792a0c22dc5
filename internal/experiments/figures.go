package experiments

import (
	"fmt"
	"sort"
	"strings"

	"lvm/internal/hwarea"
	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/stats"
	"lvm/internal/vas"
	"lvm/internal/workload"
)

// Fig2Result carries the gap-coverage study data.
type Fig2Result struct {
	Coverage map[string]float64
	Min      float64
	Table    *stats.Table `json:"-"`
}

// measureFig2 computes gap=1 coverage across all application profiles plus
// the evaluation workloads' actual layouts (keyed "wl:<name>").
func (r *Runner) measureFig2() (Fig2Result, error) {
	res := Fig2Result{Coverage: map[string]float64{}, Min: 1}
	profiles := workload.Fig2Profiles()
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		space := vas.Generate(profiles[name], r.Cfg.Params.Seed)
		c := vas.GapCoverage(space.MappedVPNs())
		res.Coverage[name] = c
		if c < res.Min {
			res.Min = c
		}
	}
	for _, name := range r.Cfg.Workloads {
		w, err := r.Workload(name)
		if err != nil {
			return Fig2Result{}, err
		}
		c := vas.GapCoverage(w.Space.MappedVPNs())
		res.Coverage["wl:"+name] = c
		if c < res.Min {
			res.Min = c
		}
	}
	return res, nil
}

// fig2GapCoverage reproduces Figure 2: the fraction of adjacent mapped-VPN
// pairs with gap = 1 across all application profiles. Paper: minimum 78%.
// The coverage is the experiment's measurement (measureFig2).
func (r *Runner) fig2GapCoverage(res Fig2Result) (Result, error) {
	tb := stats.NewTable("profile", "gap=1 coverage")
	var names []string
	for name := range res.Coverage {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasPrefix(name, "wl:") {
			continue // workload rows render below, in config order
		}
		tb.AddRow(name, pct(res.Coverage[name]))
	}
	for _, name := range r.Cfg.Workloads {
		tb.AddRow("wl:"+name, pct(res.Coverage["wl:"+name]))
	}
	res.Table = tb
	return Result{
		Table:   tb,
		Summary: fmt.Sprintf("minimum coverage: %.1f%%", 100*res.Min),
		Raw:     res,
	}, nil
}

// Fig3Result carries the contiguity study data.
type Fig3Result struct {
	// Fraction[sizeBytes] = fraction of free memory contiguously
	// allocatable at that block size.
	Fraction map[uint64]float64
	Table    *stats.Table `json:"-"`
}

// fig3Orders are the block-size orders Figure 3 samples, in print order.
var fig3Orders = []int{0, 2, 4, 6, 8, 9, 11, 13, 16, 18}

// fig3ServerBytes is the memory of each aged server of Figure 3.
const fig3ServerBytes = 2 << 30

// fig3Bytes is measureFig3's cost: it ages one server at a time.
func fig3Bytes(Config) (uint64, error) { return fig3ServerBytes, nil }

// measureFig3 ages five servers and averages their contiguous-free
// fractions per block size.
func (r *Runner) measureFig3() (Fig3Result, error) {
	res := Fig3Result{Fraction: map[uint64]float64{}}
	const servers = 5
	sums := make([]float64, len(fig3Orders))
	for s := 0; s < servers; s++ {
		mem := phys.New(fig3ServerBytes)
		mem.Fragment(r.Cfg.Params.Seed+int64(s), phys.DatacenterFragmentation)
		for i, o := range fig3Orders {
			sums[i] += mem.ContiguousFreeFraction(o)
		}
	}
	for i, o := range fig3Orders {
		res.Fraction[phys.BlockBytes(o)] = sums[i] / servers
	}
	return res, nil
}

// fig3Contiguity reproduces Figure 3: the median fraction of free memory
// immediately allocatable as a contiguous block, on a datacenter-aged
// buddy allocator. Paper: hundreds-of-MB ≈ 0, ~30% at 256 KB.
func (r *Runner) fig3Contiguity(res Fig3Result) (Result, error) {
	tb := stats.NewTable("block size", "fraction of free memory")
	for _, o := range fig3Orders {
		size := phys.BlockBytes(o)
		tb.AddRow(byteLabel(size), pct(res.Fraction[size]))
	}
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}

func byteLabel(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// SpeedupRow is one workload's Figure-9 data.
type SpeedupRow struct {
	Workload string
	// Speedup over radix with the same page size, per scheme.
	ECPT, LVM, Ideal float64
}

// Fig9Result carries the end-to-end speedups.
type Fig9Result struct {
	Rows4K, RowsTHP []SpeedupRow
	// Averages (geometric mean over workloads).
	AvgLVM4K, AvgLVMTHP     float64
	AvgECPT4K, AvgECPTTHP   float64
	AvgIdeal4K, AvgIdealTHP float64
	Table                   *stats.Table
}

// fig9Speedups reproduces Figure 9: end-to-end speedups relative to radix,
// for 4 KB pages and THP. Paper: LVM +5–26% (avg 14%) at 4 KB, +2–27%
// (avg 7%) with THP; ≥ ECPT; within 1% of ideal.
func (r *Runner) fig9Speedups() (Result, error) {
	var res Fig9Result
	tb := stats.NewTable("workload", "pages", "ecpt", "lvm", "ideal")
	for _, thp := range []bool{false, true} {
		var lvms, ecpts, ideals []float64
		for _, name := range r.Cfg.Workloads {
			rad, err := r.Run(name, oskernel.SchemeRadix, thp)
			if err != nil {
				return Result{}, err
			}
			ec, err := r.Run(name, oskernel.SchemeECPT, thp)
			if err != nil {
				return Result{}, err
			}
			lv, err := r.Run(name, oskernel.SchemeLVM, thp)
			if err != nil {
				return Result{}, err
			}
			id, err := r.Run(name, oskernel.SchemeIdeal, thp)
			if err != nil {
				return Result{}, err
			}
			base := rad.Sim.Cycles
			row := SpeedupRow{
				Workload: name,
				ECPT:     speedup(base, ec.Sim.Cycles),
				LVM:      speedup(base, lv.Sim.Cycles),
				Ideal:    speedup(base, id.Sim.Cycles),
			}
			label := "4KB"
			if thp {
				label = "THP"
				res.RowsTHP = append(res.RowsTHP, row)
			} else {
				res.Rows4K = append(res.Rows4K, row)
			}
			lvms = append(lvms, row.LVM)
			ecpts = append(ecpts, row.ECPT)
			ideals = append(ideals, row.Ideal)
			tb.AddRow(name, label, row.ECPT, row.LVM, row.Ideal)
		}
		if thp {
			res.AvgLVMTHP = stats.GeoMean(lvms)
			res.AvgECPTTHP = stats.GeoMean(ecpts)
			res.AvgIdealTHP = stats.GeoMean(ideals)
		} else {
			res.AvgLVM4K = stats.GeoMean(lvms)
			res.AvgECPT4K = stats.GeoMean(ecpts)
			res.AvgIdeal4K = stats.GeoMean(ideals)
		}
	}
	tb.AddRow("GEOMEAN", "4KB", res.AvgECPT4K, res.AvgLVM4K, res.AvgIdeal4K)
	tb.AddRow("GEOMEAN", "THP", res.AvgECPTTHP, res.AvgLVMTHP, res.AvgIdealTHP)
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}

// Fig10Result carries the MMU-overhead data.
type Fig10Result struct {
	// Relative MMU cycles vs radix (same page size), per workload.
	ECPT4K, LVM4K, ECPTTHP, LVMTHP map[string]float64
	// Walk-cycle reductions (paper: LVM −52% 4K / −44% THP; ECPT −25%/−20%).
	LVMWalkReduction4K, ECPTWalkReduction4K   float64
	LVMWalkReductionTHP, ECPTWalkReductionTHP float64
	AvgLVM4K, AvgLVMTHP                       float64
	Table                                     *stats.Table
}

// fig10MMUOverhead reproduces Figure 10: MMU overhead relative to radix.
func (r *Runner) fig10MMUOverhead() (Result, error) {
	res := Fig10Result{
		ECPT4K: map[string]float64{}, LVM4K: map[string]float64{},
		ECPTTHP: map[string]float64{}, LVMTHP: map[string]float64{},
	}
	tb := stats.NewTable("workload", "pages", "ecpt mmu", "lvm mmu", "lvm walk-cyc")
	for _, thp := range []bool{false, true} {
		var lvmRel, lvmWalk, ecptWalk []float64
		for _, name := range r.Cfg.Workloads {
			base, err := r.Run(name, oskernel.SchemeRadix, thp)
			if err != nil {
				return Result{}, err
			}
			ec, err := r.Run(name, oskernel.SchemeECPT, thp)
			if err != nil {
				return Result{}, err
			}
			lv, err := r.Run(name, oskernel.SchemeLVM, thp)
			if err != nil {
				return Result{}, err
			}
			relE := ec.Sim.MMUCycles() / base.Sim.MMUCycles()
			relL := lv.Sim.MMUCycles() / base.Sim.MMUCycles()
			wL := lv.Sim.WalkCycles / base.Sim.WalkCycles
			wE := ec.Sim.WalkCycles / base.Sim.WalkCycles
			label := "4KB"
			if thp {
				label = "THP"
				res.ECPTTHP[name], res.LVMTHP[name] = relE, relL
			} else {
				res.ECPT4K[name], res.LVM4K[name] = relE, relL
			}
			lvmRel = append(lvmRel, relL)
			lvmWalk = append(lvmWalk, wL)
			ecptWalk = append(ecptWalk, wE)
			tb.AddRow(name, label, relE, relL, wL)
		}
		if thp {
			res.AvgLVMTHP = stats.Mean(lvmRel)
			res.LVMWalkReductionTHP = 1 - stats.Mean(lvmWalk)
			res.ECPTWalkReductionTHP = 1 - stats.Mean(ecptWalk)
		} else {
			res.AvgLVM4K = stats.Mean(lvmRel)
			res.LVMWalkReduction4K = 1 - stats.Mean(lvmWalk)
			res.ECPTWalkReduction4K = 1 - stats.Mean(ecptWalk)
		}
	}
	res.Table = tb
	return Result{
		Table: tb,
		Summary: fmt.Sprintf("LVM walk-cycle reduction: %.1f%% (4KB), %.1f%% (THP); ECPT: %.1f%%, %.1f%%",
			100*res.LVMWalkReduction4K, 100*res.LVMWalkReductionTHP,
			100*res.ECPTWalkReduction4K, 100*res.ECPTWalkReductionTHP),
		Raw: res,
	}, nil
}

// Fig11Result carries the walk-traffic data.
type Fig11Result struct {
	// Relative page-walk memory requests vs radix (same page size).
	LVM4K, ECPT4K, LVMTHP, ECPTTHP map[string]float64
	AvgLVM4K, AvgECPT4K            float64
	AvgLVMTHP, AvgECPTTHP          float64
	// LVM traffic relative to ideal (paper: within 1%).
	LVMvsIdeal float64
	Table      *stats.Table
}

// fig11WalkTraffic reproduces Figure 11: memory requests from page walks,
// relative to radix. Paper: LVM −43%/−34%; ECPT 1.7×/2.1×.
func (r *Runner) fig11WalkTraffic() (Result, error) {
	res := Fig11Result{
		LVM4K: map[string]float64{}, ECPT4K: map[string]float64{},
		LVMTHP: map[string]float64{}, ECPTTHP: map[string]float64{},
	}
	tb := stats.NewTable("workload", "pages", "ecpt traffic", "lvm traffic")
	var vsIdeal []float64
	for _, thp := range []bool{false, true} {
		var ls, es []float64
		for _, name := range r.Cfg.Workloads {
			rad, err := r.Run(name, oskernel.SchemeRadix, thp)
			if err != nil {
				return Result{}, err
			}
			lvr, err := r.Run(name, oskernel.SchemeLVM, thp)
			if err != nil {
				return Result{}, err
			}
			ecr, err := r.Run(name, oskernel.SchemeECPT, thp)
			if err != nil {
				return Result{}, err
			}
			idr, err := r.Run(name, oskernel.SchemeIdeal, thp)
			if err != nil {
				return Result{}, err
			}
			base := float64(rad.Sim.WalkRefs)
			lv := float64(lvr.Sim.WalkRefs)
			ec := float64(ecr.Sim.WalkRefs)
			id := float64(idr.Sim.WalkRefs)
			label := "4KB"
			if thp {
				label = "THP"
				res.LVMTHP[name], res.ECPTTHP[name] = lv/base, ec/base
			} else {
				res.LVM4K[name], res.ECPT4K[name] = lv/base, ec/base
			}
			ls = append(ls, lv/base)
			es = append(es, ec/base)
			if id > 0 {
				vsIdeal = append(vsIdeal, lv/id)
			}
			tb.AddRow(name, label, ec/base, lv/base)
		}
		if thp {
			res.AvgLVMTHP, res.AvgECPTTHP = stats.Mean(ls), stats.Mean(es)
		} else {
			res.AvgLVM4K, res.AvgECPT4K = stats.Mean(ls), stats.Mean(es)
		}
	}
	res.LVMvsIdeal = stats.Mean(vsIdeal)
	res.Table = tb
	return Result{
		Table: tb,
		Summary: fmt.Sprintf("averages: LVM %.2fx / %.2fx, ECPT %.2fx / %.2fx; LVM vs ideal %.3fx",
			res.AvgLVM4K, res.AvgLVMTHP, res.AvgECPT4K, res.AvgECPTTHP, res.LVMvsIdeal),
		Raw: res,
	}, nil
}

// Fig12Result carries the cache-MPKI data.
type Fig12Result struct {
	// L2/L3 MPKI relative to radix (4 KB pages).
	LVML2, LVML3, ECPTL2, ECPTL3             map[string]float64
	AvgLVML2, AvgLVML3, AvgECPTL2, AvgECPTL3 float64
	Table                                    *stats.Table
}

// fig12CacheMPKI reproduces Figure 12: L2/L3 MPKI relative to radix.
// Paper: LVM within ~1%; ECPT +44% L2 / +40% L3.
func (r *Runner) fig12CacheMPKI() (Result, error) {
	res := Fig12Result{
		LVML2: map[string]float64{}, LVML3: map[string]float64{},
		ECPTL2: map[string]float64{}, ECPTL3: map[string]float64{},
	}
	tb := stats.NewTable("workload", "lvm L2", "lvm L3", "ecpt L2", "ecpt L3")
	var l2s, l3s, e2s, e3s []float64
	for _, name := range r.Cfg.Workloads {
		base, err := r.Run(name, oskernel.SchemeRadix, false)
		if err != nil {
			return Result{}, err
		}
		lv, err := r.Run(name, oskernel.SchemeLVM, false)
		if err != nil {
			return Result{}, err
		}
		ec, err := r.Run(name, oskernel.SchemeECPT, false)
		if err != nil {
			return Result{}, err
		}
		res.LVML2[name] = lv.Sim.L2MPKI / base.Sim.L2MPKI
		res.LVML3[name] = lv.Sim.L3MPKI / base.Sim.L3MPKI
		res.ECPTL2[name] = ec.Sim.L2MPKI / base.Sim.L2MPKI
		res.ECPTL3[name] = ec.Sim.L3MPKI / base.Sim.L3MPKI
		l2s = append(l2s, res.LVML2[name])
		l3s = append(l3s, res.LVML3[name])
		e2s = append(e2s, res.ECPTL2[name])
		e3s = append(e3s, res.ECPTL3[name])
		tb.AddRow(name, res.LVML2[name], res.LVML3[name], res.ECPTL2[name], res.ECPTL3[name])
	}
	res.AvgLVML2, res.AvgLVML3 = stats.Mean(l2s), stats.Mean(l3s)
	res.AvgECPTL2, res.AvgECPTL3 = stats.Mean(e2s), stats.Mean(e3s)
	res.Table = tb
	return Result{
		Table: tb,
		Summary: fmt.Sprintf("averages: LVM L2 %.3f L3 %.3f; ECPT L2 %.3f L3 %.3f",
			res.AvgLVML2, res.AvgLVML3, res.AvgECPTL2, res.AvgECPTL3),
		Raw: res,
	}, nil
}

// Table2Result carries the index-size data.
type Table2Result struct {
	Size4K, SizeTHP map[string]int
	Peak            map[string]int
	Table           *stats.Table `json:"-"`
	// Scaling study: index size per memcached footprint.
	ScalingSizes map[uint64]int
}

// table2Scales multiplies quarters of the configured memcached footprint
// for the scaling launches, in print order.
var table2Scales = []uint64{1, 2, 4}

// table2ScalingParams sizes memcached for one scaling launch.
func table2ScalingParams(p workload.Params, scale uint64) workload.Params {
	p.MemcachedBytes = p.MemcachedBytes / 4 * scale
	return p
}

// table2ScalingBytes is measureTable2Scaling's cost: the launches run one
// at a time, so the largest of their memories.
func table2ScalingBytes(cfg Config) (uint64, error) {
	var most uint64
	for _, scale := range table2Scales {
		fp, err := workload.EstimateFootprintBytes("mem$", table2ScalingParams(cfg.Params, scale))
		if err != nil {
			return 0, err
		}
		most = max(most, cfg.RunCostBytes(fp))
	}
	return most, nil
}

// measureTable2Scaling launches memcached at growing footprints through
// the scaled-HW launch path and records the steady-state index size per
// footprint. The index must not grow with the footprint.
func (r *Runner) measureTable2Scaling() (map[uint64]int, error) {
	sizes := map[uint64]int{}
	for _, scale := range table2Scales {
		p := table2ScalingParams(r.Cfg.Params, scale)
		w, err := workload.Build("mem$", p)
		if err != nil {
			return nil, fmt.Errorf("table2 scaling @%s: %w", byteLabel(p.MemcachedBytes), err)
		}
		_, proc, err := launchScaled(r.physFor(w), oskernel.SchemeLVM, w.Space, false)
		if err != nil {
			return nil, fmt.Errorf("table2 scaling @%s: launch: %w", byteLabel(p.MemcachedBytes), err)
		}
		sizes[p.MemcachedBytes] = proc.LVMIndex().SizeBytes()
	}
	return sizes, nil
}

// table2IndexSize reproduces Table 2 plus the scaling study: steady-state
// index sizes in bytes. Paper: 96–128 B (4K), 112–192 B (THP), constant
// across memcached 32→240 GB. The per-workload rows come from the run
// matrix; the scaling launches are the experiment's measurement.
func (r *Runner) table2IndexSize(scaling map[uint64]int) (Result, error) {
	res := Table2Result{
		Size4K: map[string]int{}, SizeTHP: map[string]int{},
		Peak: map[string]int{},
	}
	tb := stats.NewTable("workload", "4KB bytes", "THP bytes", "peak bytes", "depth", "LWC hit")
	for _, name := range r.Cfg.Workloads {
		a, err := r.Run(name, oskernel.SchemeLVM, false)
		if err != nil {
			return Result{}, err
		}
		b, err := r.Run(name, oskernel.SchemeLVM, true)
		if err != nil {
			return Result{}, err
		}
		res.Size4K[name] = a.IndexBytes
		res.SizeTHP[name] = b.IndexBytes
		res.Peak[name] = a.IndexPeakBytes
		tb.AddRow(name, a.IndexBytes, b.IndexBytes, a.IndexPeakBytes, a.IndexDepth, pct(a.LWCHitRate))
	}
	res.ScalingSizes = scaling
	for _, scale := range table2Scales {
		size := r.Cfg.Params.MemcachedBytes / 4 * scale
		tb.AddRow(fmt.Sprintf("mem$ @%s", byteLabel(size)), scaling[size], "-", "-", "-", "-")
	}
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}

// HardwareResult carries the §7.4 data.
type HardwareResult struct {
	Cmp   hwarea.Comparison
	Table *stats.Table
}

// hardwareArea reproduces §7.4: area/power/size of LVM's hardware vs
// radix's PWC. Paper: 3.0× size, 1.5× area, 1.9× power; walker
// 0.000637 mm²; LWC 0.00364 mm², 0.588 mW.
func (r *Runner) hardwareArea() (Result, error) {
	c := hwarea.Compare()
	tb := stats.NewTable("structure", "payload bytes", "area mm2", "leakage mW")
	tb.AddRow("LVM LWC", c.LWC.DataBytes(), fmt.Sprintf("%.5f", c.LWC.AreaMM2()), fmt.Sprintf("%.3f", c.LWC.LeakageMW()))
	tb.AddRow("Radix PWC", c.PWC.DataBytes(), fmt.Sprintf("%.5f", c.PWC.AreaMM2()), fmt.Sprintf("%.3f", c.PWC.LeakageMW()))
	tb.AddRow("LVM walker", "-", fmt.Sprintf("%.6f", c.WalkerMM), "-")
	tb.AddRow("improvement", fmt.Sprintf("%.1fx", c.SizeX), fmt.Sprintf("%.1fx", c.AreaX), fmt.Sprintf("%.1fx", c.PowerX))
	return Result{Table: tb, Raw: HardwareResult{Cmp: c, Table: tb}}, nil
}
