package experiments

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/oskernel"
	"lvm/internal/sim"
	"lvm/internal/stats"
)

// TailLatencyResult carries the §7.3 memcached tail-latency study.
type TailLatencyResult struct {
	// Request latency percentiles, in cycles, for a quiescent run and a
	// run with continuous LVM management churn (maps/unmaps between
	// requests). Paper: LVM's computational costs do not affect even the
	// 99th percentile.
	StaticP50, StaticP99 float64
	ChurnP50, ChurnP99   float64
	// ChurnOps is the number of map/unmap operations injected.
	ChurnOps int
	// MgmtCyclesCharged is the total management time injected.
	MgmtCyclesCharged uint64
	Table             *stats.Table `json:"-"`
}

// tailBytes is measureTail's cost: its two memcached launches, one at a
// time.
func tailBytes(cfg Config) (uint64, error) { return cfg.estimatedRunBytes("mem$") }

// measureTail runs the quiescent and churning memcached simulations and
// collects the study's percentiles and churn counters.
func (r *Runner) measureTail() (TailLatencyResult, error) {
	var res TailLatencyResult
	w, err := r.Workload("mem$")
	if err != nil {
		return TailLatencyResult{}, err
	}

	run := func(churn bool) (p50, p99 float64, err error) {
		sys, p, err := launchScaled(r.physFor(w), oskernel.SchemeLVM, w.Space, false)
		if err != nil {
			return 0, 0, fmt.Errorf("tail churn=%t: launch: %w", churn, err)
		}
		heap, err := heapOf(w.Space)
		if err != nil {
			return 0, 0, fmt.Errorf("tail churn=%t: %w", churn, err)
		}
		tail := heap.Mapped[len(heap.Mapped)-1]
		cpu := sim.New(r.Cfg.Sim, sys.Walker())

		var hook func(int) float64
		if churn {
			cursor := heap.Base
			lastMgmt := p.MgmtCycles
			hook = func(i int) float64 {
				if i%512 != 511 {
					return 0
				}
				// Unmap-and-remap churn every 512 requests: frees keep the
				// index untouched (§5.2) and re-maps drive the gapped
				// insert path, the steady-state maintenance load.
				if sys.UnmapPage(1, cursor) {
					res.ChurnOps++
					if err := sys.MapPage(1, cursor, addr.Page4K); err == nil {
						res.ChurnOps++
					}
				}
				cursor++
				if cursor >= tail {
					cursor = heap.Base
				}
				d := p.MgmtCycles - lastMgmt
				lastMgmt = p.MgmtCycles
				res.MgmtCyclesCharged += d
				return float64(d)
			}
		}
		_, lats := cpu.RunTail(1, w, hook)
		return stats.Percentile(lats, 50), stats.Percentile(lats, 99), nil
	}

	if res.StaticP50, res.StaticP99, err = run(false); err != nil {
		return TailLatencyResult{}, err
	}
	if res.ChurnP50, res.ChurnP99, err = run(true); err != nil {
		return TailLatencyResult{}, err
	}
	return res, nil
}

// tailLatency reproduces §7.3's memcached tail study: request latencies
// are measured with the OS continuously mapping and unmapping pages (the
// LVM maintenance path) between requests; p99 must be unaffected. The
// study is entirely bespoke: the experiment's measurement is the whole
// result.
func (r *Runner) tailLatency(res TailLatencyResult) (Result, error) {
	tb := stats.NewTable("run", "p50 cycles", "p99 cycles")
	tb.AddRow("static", res.StaticP50, res.StaticP99)
	tb.AddRow("with LVM mgmt churn", res.ChurnP50, res.ChurnP99)
	tb.AddRow("churn ops", res.ChurnOps, fmt.Sprintf("%d mgmt cycles", res.MgmtCyclesCharged))
	res.Table = tb
	return Result{Table: tb, Raw: res}, nil
}
