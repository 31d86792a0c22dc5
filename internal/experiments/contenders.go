package experiments

import (
	"lvm/internal/oskernel"
	"lvm/internal/stats"
)

// contenderSchemes is the contenders run matrix: the conventional baseline,
// the paper's learned scheme, and the two speculative walkers that exercise
// the verify-overlap walk model.
var contenderSchemes = []oskernel.Scheme{
	oskernel.SchemeRadix, oskernel.SchemeLVM,
	oskernel.SchemeVictima, oskernel.SchemeRevelator,
}

// ContendersResult compares the speculative-translation contenders (Victima's
// cache-resident translation store, Revelator's hash-probe-then-verify) with
// radix and LVM across the full workload sweep. Maps are keyed
// "workload/scheme".
type ContendersResult struct {
	// Speedup vs radix on the same workload (radix rows are 1.0).
	Speedup map[string]float64
	// MMUPct is the fraction of cycles spent in translation (TLB + walks).
	MMUPct map[string]float64
	// RefsPerWalk is the mean memory requests per hardware walk — for the
	// speculative schemes this counts probe, fallback/verify, and fill
	// traffic, the bandwidth cost their latency hiding pays.
	RefsPerWalk map[string]float64
	Table       *stats.Table
}

// contenders runs the speculative-scheme comparison: every workload under
// radix, LVM, Victima, and Revelator (4 KB pages). The verify-overlap model
// is what differentiates the newcomers — Victima's store fill and
// Revelator's radix verify walk are charged as max(verify, access), so the
// comparison isolates how much of the walk each scheme actually hides.
func (r *Runner) contenders() (Result, error) {
	res := ContendersResult{
		Speedup:     map[string]float64{},
		MMUPct:      map[string]float64{},
		RefsPerWalk: map[string]float64{},
	}
	tb := stats.NewTable("workload", "scheme", "speedup vs radix", "mmu %", "refs/walk")
	for _, name := range r.Cfg.Workloads {
		rad, err := r.Run(name, oskernel.SchemeRadix, false)
		if err != nil {
			return Result{}, err
		}
		base := rad.Sim.Cycles
		for _, scheme := range contenderSchemes {
			out, err := r.Run(name, scheme, false)
			if err != nil {
				return Result{}, err
			}
			key := name + "/" + string(scheme)
			sp := speedup(base, out.Sim.Cycles)
			mmu := 0.0
			if out.Sim.Cycles > 0 {
				mmu = 100 * out.Sim.MMUCycles() / out.Sim.Cycles
			}
			rpw := 0.0
			if out.Sim.Walks > 0 {
				rpw = float64(out.Sim.WalkRefs) / float64(out.Sim.Walks)
			}
			res.Speedup[key], res.MMUPct[key], res.RefsPerWalk[key] = sp, mmu, rpw
			tb.AddRow(name, string(scheme), sp, mmu, rpw)
		}
	}
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}
