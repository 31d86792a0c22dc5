// Benchmarks that regenerate the paper's evaluation: one benchmark per
// table and figure (reporting the headline numbers as custom metrics), plus
// micro-benchmarks of the core data structures and the ablation sweeps
// called out in DESIGN.md §5.
//
// The experiment benchmarks share one Runner and go through its Execute
// method, so the first benchmark to need a (workload, scheme) run or a
// measurement pays for it and the rest reuse it. Set LVM_BENCH_SCALE=quick
// for a fast pass.
package lvm_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"lvm"
	"lvm/internal/blake2b"
	"lvm/internal/core"
	"lvm/internal/experiments"
	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/sim"
	"lvm/internal/workload"
)

var (
	runnerOnce sync.Once
	benchR     *experiments.Runner
)

func runner() *experiments.Runner {
	runnerOnce.Do(func() {
		cfg := experiments.Default()
		if os.Getenv("LVM_BENCH_SCALE") == "quick" {
			cfg = experiments.Quick()
		}
		benchR = experiments.NewRunner(cfg)
	})
	return benchR
}

// result executes experiment key on the shared runner b.N times and returns
// its raw result. Only the first execution of a run or measurement
// simulates; later ones, in this benchmark or another, reuse it.
func result[T any](b *testing.B, key string) T {
	b.Helper()
	var res T
	for i := 0; i < b.N; i++ {
		out, err := runner().Execute(experiments.ExecOptions{Workers: runtime.NumCPU()}, key)
		if err != nil {
			b.Fatal(err)
		}
		res = out[0].Raw.(T)
	}
	return res
}

// --- Figure/table regeneration benchmarks -----------------------------------

func BenchmarkFig2GapCoverage(b *testing.B) {
	res := result[experiments.Fig2Result](b, "fig2")
	b.ReportMetric(100*res.Min, "min-coverage-%")
}

func BenchmarkFig3Contiguity(b *testing.B) {
	res := result[experiments.Fig3Result](b, "fig3")
	b.ReportMetric(100*res.Fraction[256<<10], "contig-256KB-%")
	b.ReportMetric(100*res.Fraction[256<<20], "contig-256MB-%")
}

func BenchmarkFig9Speedup(b *testing.B) {
	res := result[experiments.Fig9Result](b, "fig9")
	b.ReportMetric(100*(res.AvgLVM4K-1), "lvm-4K-speedup-%")
	b.ReportMetric(100*(res.AvgLVMTHP-1), "lvm-THP-speedup-%")
	b.ReportMetric(100*(res.AvgECPT4K-1), "ecpt-4K-speedup-%")
	b.ReportMetric(100*(res.AvgIdeal4K-1), "ideal-4K-speedup-%")
}

func BenchmarkFig10MMUOverhead(b *testing.B) {
	res := result[experiments.Fig10Result](b, "fig10")
	b.ReportMetric(100*(1-res.AvgLVM4K), "lvm-mmu-reduction-4K-%")
	b.ReportMetric(100*(1-res.AvgLVMTHP), "lvm-mmu-reduction-THP-%")
	b.ReportMetric(100*res.LVMWalkReduction4K, "lvm-walkcyc-reduction-4K-%")
	b.ReportMetric(100*res.ECPTWalkReduction4K, "ecpt-walkcyc-reduction-4K-%")
}

func BenchmarkFig11WalkTraffic(b *testing.B) {
	res := result[experiments.Fig11Result](b, "fig11")
	b.ReportMetric(res.AvgLVM4K, "lvm-traffic-vs-radix-4K")
	b.ReportMetric(res.AvgECPT4K, "ecpt-traffic-vs-radix-4K")
	b.ReportMetric(res.AvgLVMTHP, "lvm-traffic-vs-radix-THP")
	b.ReportMetric(res.AvgECPTTHP, "ecpt-traffic-vs-radix-THP")
	b.ReportMetric(res.LVMvsIdeal, "lvm-traffic-vs-ideal")
}

func BenchmarkFig12CacheMPKI(b *testing.B) {
	res := result[experiments.Fig12Result](b, "fig12")
	b.ReportMetric(res.AvgLVML2, "lvm-L2-mpki-vs-radix")
	b.ReportMetric(res.AvgLVML3, "lvm-L3-mpki-vs-radix")
	b.ReportMetric(res.AvgECPTL2, "ecpt-L2-mpki-vs-radix")
	b.ReportMetric(res.AvgECPTL3, "ecpt-L3-mpki-vs-radix")
}

func BenchmarkTable2IndexSize(b *testing.B) {
	res := result[experiments.Table2Result](b, "table2")
	var sum4K, n float64
	for _, s := range res.Size4K {
		sum4K += float64(s)
		n++
	}
	b.ReportMetric(sum4K/n, "avg-index-bytes-4K")
	// Scaling claim: max index size across memcached footprints.
	maxScale := 0.0
	for _, s := range res.ScalingSizes {
		if float64(s) > maxScale {
			maxScale = float64(s)
		}
	}
	b.ReportMetric(maxScale, "mem$-scaling-max-bytes")
}

func BenchmarkCollisionRates(b *testing.B) {
	res := result[experiments.CollisionResult](b, "collisions")
	b.ReportMetric(100*res.AvgLVM4K, "lvm-collisions-4K-%")
	b.ReportMetric(100*res.AvgLVMTHP, "lvm-collisions-THP-%")
	b.ReportMetric(100*res.AvgHash4K, "blake2-collisions-4K-%")
	b.ReportMetric(res.AvgExtraPerColl, "extra-accesses-per-collision")
}

func BenchmarkRetrainStats(b *testing.B) {
	res := result[experiments.RetrainResult](b, "retrain")
	b.ReportMetric(float64(res.Max), "max-retrain-events")
	b.ReportMetric(res.Avg, "avg-retrain-events")
	b.ReportMetric(100*res.AvgMgmt, "mgmt-overhead-%")
}

func BenchmarkMemoryOverhead(b *testing.B) {
	res := result[experiments.MemoryOverheadResult](b, "memory")
	var lvmSum, ecptSum float64
	for name := range res.LVM {
		lvmSum += float64(res.LVM[name])
		ecptSum += float64(res.ECPT[name])
	}
	b.ReportMetric(lvmSum/(1<<20), "lvm-overhead-MB-total")
	b.ReportMetric(ecptSum/(1<<20), "ecpt-overhead-MB-total")
}

func BenchmarkFragmentationRobustness(b *testing.B) {
	res := result[experiments.FragmentationResult](b, "fragmentation")
	b.ReportMetric(100*(res.Speedups["fresh"]-1), "speedup-fresh-%")
	b.ReportMetric(100*(res.Speedups["cap 256KB"]-1), "speedup-256KB-cap-%")
	b.ReportMetric(100*(res.Speedups["FMFI 0.9"]-1), "speedup-FMFI0.9-%")
	b.ReportMetric(100*res.LWCHits["cap 256KB"], "lwc-hit-256KB-cap-%")
}

func BenchmarkWalkCacheMissRates(b *testing.B) {
	res := result[experiments.WalkCacheResult](b, "walkcaches")
	var tlbSum, pdeSum, lwcSum, n float64
	for name := range res.L2TLBMiss {
		tlbSum += res.L2TLBMiss[name]
		pdeSum += res.PWCPDEMiss[name]
		lwcSum += res.LWCHit[name]
		n++
	}
	b.ReportMetric(100*tlbSum/n, "avg-L2TLB-miss-%")
	b.ReportMetric(100*pdeSum/n, "avg-radix-PDE-miss-%")
	b.ReportMetric(100*lwcSum/n, "avg-LWC-hit-%")
}

func BenchmarkPTWL1Connection(b *testing.B) {
	res := result[experiments.PTWL1Result](b, "ptwl1")
	b.ReportMetric(100*(res.SpeedupL1-1), "lvm-speedup-PTW-L1-%")
	b.ReportMetric(100*(res.SpeedupL2-1), "lvm-speedup-PTW-L2-%")
	b.ReportMetric(100*res.RadixL1MPKIIncrease, "radix-L1-mpki-increase-%")
	b.ReportMetric(100*res.LVML1MPKIIncrease, "lvm-L1-mpki-increase-%")
}

func BenchmarkMultiTenancy(b *testing.B) {
	res := result[experiments.MultiTenancyResult](b, "multitenancy")
	b.ReportMetric(100*res.MaxDelta, "max-speedup-delta-%")
}

func BenchmarkTailLatency(b *testing.B) {
	res := result[experiments.TailLatencyResult](b, "tail")
	b.ReportMetric(res.StaticP99, "p99-static-cycles")
	b.ReportMetric(res.ChurnP99, "p99-churn-cycles")
	b.ReportMetric(float64(res.ChurnOps), "churn-ops")
}

func BenchmarkHardwareArea(b *testing.B) {
	res := result[experiments.HardwareResult](b, "hardware")
	b.ReportMetric(res.Cmp.SizeX, "size-improvement-x")
	b.ReportMetric(res.Cmp.AreaX, "area-improvement-x")
	b.ReportMetric(res.Cmp.PowerX, "power-improvement-x")
	b.ReportMetric(res.Cmp.WalkerMM*1e6, "walker-um2")
}

func BenchmarkPriorWork(b *testing.B) {
	res := result[experiments.PriorWorkResult](b, "priorwork")
	b.ReportMetric(100*(res.LVM-1), "lvm-speedup-%")
	b.ReportMetric(100*(res.ASAP-1), "asap-speedup-%")
	b.ReportMetric(100*(res.Midgard-1), "midgard-speedup-%")
	b.ReportMetric(100*(res.FPT-1), "fpt-speedup-%")
	b.ReportMetric(100*(res.FPTFragmented-1), "fpt-fragmented-speedup-%")
}

// --- Micro-benchmarks of the core structures --------------------------------

func benchIndex(b *testing.B, keys int) (*core.Index, []lvm.VPN) {
	b.Helper()
	mem := phys.New(1 << 30)
	ms := make([]core.Mapping, keys)
	for i := range ms {
		ms[i] = core.Mapping{VPN: lvm.VPN(0x1000 + i), Entry: pte.New(lvm.PPN(i+1), lvm.Page4K)}
	}
	ix, err := core.Build(mem, ms, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	vpns := make([]lvm.VPN, keys)
	for i := range vpns {
		vpns[i] = lvm.VPN(0x1000 + (i*2654435761)%keys)
	}
	return ix, vpns
}

func BenchmarkIndexWalk(b *testing.B) {
	ix, vpns := benchIndex(b, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := ix.Walk(vpns[i%len(vpns)]); !r.Found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	ms := make([]core.Mapping, 1<<16)
	for i := range ms {
		ms[i] = core.Mapping{VPN: lvm.VPN(0x1000 + i), Entry: pte.New(lvm.PPN(i+1), lvm.Page4K)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem := phys.New(1 << 30)
		ix, err := core.Build(mem, ms, core.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		ix.Release()
	}
}

func BenchmarkIndexInsertSequential(b *testing.B) {
	mem := phys.New(2 << 30)
	ms := []core.Mapping{{VPN: 0x1000, Entry: pte.New(1, lvm.Page4K)}}
	ix, err := core.Build(mem, ms, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.Mapping{VPN: lvm.VPN(0x1001 + i), Entry: pte.New(lvm.PPN(i+2), lvm.Page4K)}
		if err := ix.Insert(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadixWalk(b *testing.B) {
	mem := phys.New(1 << 30)
	sys := oskernel.NewSystem(mem, oskernel.SchemeRadix)
	cfg := lvm.DefaultLayout()
	cfg.HeapPages = 1 << 16
	cfg.MmapRegions = 1
	cfg.MmapPages = 1024
	space := lvm.GenerateAddressSpace(cfg, 3)
	if _, err := sys.Launch(1, space, false); err != nil {
		b.Fatal(err)
	}
	heap := space.Regions[0]
	for _, r := range space.Regions {
		if r.Kind == "heap" {
			heap = r
		}
	}
	w := sys.Walker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := heap.Mapped[(i*2654435761)%len(heap.Mapped)]
		if out := w.Walk(1, v); !out.Found {
			b.Fatal("miss")
		}
	}
}

// BenchmarkBlake2Sum64 measures the hash the ECPT baseline and the §7.3
// hash-table comparison pay per probe.
func BenchmarkBlake2Sum64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= blake2b.Sum64(uint64(i))
	}
	_ = acc
}

// BenchmarkBlake2Sum64s measures one ECPT probe's hashing: the three cuckoo
// ways' keys in one Sum64s call.
func BenchmarkBlake2Sum64s(b *testing.B) {
	var keys, sums [3]uint64
	var acc uint64
	for i := 0; i < b.N; i++ {
		keys = [3]uint64{uint64(i), uint64(i) ^ 0x9e3779b97f4a7c15, uint64(i) ^ 0x3c6ef372fe94f82a}
		blake2b.Sum64s(sums[:], keys[:])
		acc ^= sums[0] ^ sums[1] ^ sums[2]
	}
	_ = acc
}

// --- Ablation sweeps (DESIGN.md §5) -----------------------------------------

func ablationSpace(n int) []core.Mapping {
	ms := make([]core.Mapping, 0, n)
	// Multi-segment space with holes: enough irregularity for parameters
	// to matter.
	segs := []struct {
		base lvm.VPN
		n    int
	}{{0x400, n / 4}, {0x40000, n / 2}, {0x90000, n / 4}}
	ppn := lvm.PPN(1)
	for _, s := range segs {
		for i := 0; i < s.n; i++ {
			if i%17 == 5 {
				continue // holes
			}
			ms = append(ms, core.Mapping{VPN: s.base + lvm.VPN(i), Entry: pte.New(ppn, lvm.Page4K)})
			ppn++
		}
	}
	return ms
}

func measureIndex(b *testing.B, p core.Params) (indexBytes int, collisionPct float64) {
	ms := ablationSpace(1 << 16)
	mem := phys.New(1 << 30)
	ix, err := core.Build(mem, ms, p)
	if err != nil {
		b.Fatal(err)
	}
	coll := 0
	for i := 0; i < len(ms); i += 7 {
		if r := ix.Walk(ms[i].VPN); r.PTEAccesses > 1 {
			coll++
		}
	}
	return ix.SizeBytes(), 100 * float64(coll) / float64(len(ms)/7)
}

func BenchmarkAblationGAScale(b *testing.B) {
	for _, ga := range []float64{1.0, 1.1, 1.3, 1.6, 2.0} {
		b.Run(formatF(ga), func(b *testing.B) {
			p := core.DefaultParams()
			p.GAScale = ga
			var size int
			var coll float64
			for i := 0; i < b.N; i++ {
				size, coll = measureIndex(b, p)
			}
			b.ReportMetric(float64(size), "index-bytes")
			b.ReportMetric(coll, "collisions-%")
		})
	}
}

func BenchmarkAblationDLimit(b *testing.B) {
	for _, d := range []int{1, 2, 3, 4, 5} {
		b.Run(formatI(d), func(b *testing.B) {
			p := core.DefaultParams()
			p.DLimit = d
			var size int
			var coll float64
			for i := 0; i < b.N; i++ {
				size, coll = measureIndex(b, p)
			}
			b.ReportMetric(float64(size), "index-bytes")
			b.ReportMetric(coll, "collisions-%")
		})
	}
}

func BenchmarkAblationX3(b *testing.B) {
	for _, x3 := range []float64{20, 200, 2000} {
		b.Run(formatF(x3), func(b *testing.B) {
			p := core.DefaultParams()
			p.X3 = x3
			var size int
			var coll float64
			for i := 0; i < b.N; i++ {
				size, coll = measureIndex(b, p)
			}
			b.ReportMetric(float64(size), "index-bytes")
			b.ReportMetric(coll, "collisions-%")
		})
	}
}

func BenchmarkAblationMinInsertDistance(b *testing.B) {
	for _, distMB := range []uint64{0, 4, 64, 256} {
		b.Run(formatI(int(distMB)), func(b *testing.B) {
			p := core.DefaultParams()
			p.MinInsertDistance = distMB << 20 >> 12
			var events uint64
			for i := 0; i < b.N; i++ {
				mem := phys.New(1 << 30)
				ms := []core.Mapping{{VPN: 0x1000, Entry: pte.New(1, lvm.Page4K)}}
				ix, err := core.Build(mem, ms, p)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 50000; j++ {
					m := core.Mapping{VPN: lvm.VPN(0x1001 + j), Entry: pte.New(lvm.PPN(j+2), lvm.Page4K)}
					if err := ix.Insert(m); err != nil {
						b.Fatal(err)
					}
				}
				s := ix.Stats()
				events = s.Retrains + s.Rebuilds + s.EdgeExpansions
				ix.Release()
			}
			b.ReportMetric(float64(events), "maintenance-events")
		})
	}
}

func BenchmarkAblationLWCSize(b *testing.B) {
	for _, entries := range []int{4, 8, 16, 32, 64} {
		b.Run(formatI(entries), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				w, err := workload.Build("bfs", workload.QuickParams())
				if err != nil {
					b.Fatal(err)
				}
				mem := phys.New(1 << 30)
				sys := oskernel.NewSystemHW(mem, oskernel.SchemeLVM,
					oskernel.HWConfig{PWCEntriesPerLevel: 32, LWCEntries: entries})
				if _, err := sys.Launch(1, w.Space, false); err != nil {
					b.Fatal(err)
				}
				cpu := sim.New(sim.ScaledConfig(), sys.Walker())
				cpu.Run(1, w)
				hit = sys.LVMWalker().LWC().HitRate()
			}
			b.ReportMetric(100*hit, "lwc-hit-%")
		})
	}
}

func formatF(f float64) string { return fmt.Sprintf("v%g", f) }
func formatI(i int) string     { return fmt.Sprintf("v%d", i) }
