// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) through a two-phase plan/execute pipeline:
//
//  1. Plan: each experiment is a declarative registry entry (Registry)
//     whose Requires phase enumerates the (workload, scheme, THP)
//     simulations it needs as RunKeys, and whose optional Measure takes a
//     bespoke measurement no RunKey describes.
//  2. Execute: ExecutePlan, built on internal/experiments/sched, dedupes
//     the RunKeys across all selected experiments and executes them and
//     the measurements as tasks of one bounded worker pool under a memory
//     budget, merges the results in deterministic task order, and only
//     then invokes each experiment's Compute, which reads and renders.
//
// ExecutePlan is the only place an experiment simulates. Output is
// bit-for-bit identical at any worker count and whether a task ran or was
// restored from the run cache, and every failure on the
// workload-build/launch/run path propagates as a wrapped error naming its
// task — never a panic. Progress reporting is injected via the Sink
// interface (quiet by default; cmd/lvmbench streams to stderr).
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/sim"
	"lvm/internal/vas"
	"lvm/internal/wallclock"
	"lvm/internal/workload"
)

// Config sizes the experiment sweep.
type Config struct {
	// Workloads to sweep (default: the nine Figure-9 workloads).
	Workloads []string
	// Params scales workload construction.
	Params workload.Params
	// Sim is the machine model (default: the proportionally scaled model;
	// see sim.ScaledConfig).
	Sim sim.Config
	// PhysSlackBytes is added to each workload's footprint when sizing
	// simulated physical memory.
	PhysSlackBytes uint64
	// PhysBytes, when non-zero, overrides the per-run physical memory size
	// entirely (footprint-based sizing is skipped). Used by tests to force
	// launch failures; full- and quick-scale configs leave it zero.
	PhysBytes uint64
	// Warmup, when positive, fast-forwards the first Warmup accesses of
	// every run through functional state (TLBs, walk caches, cache tags)
	// before the measured region begins — counters then cover only the
	// remaining accesses, from warmed state. It changes measured results,
	// so it is part of the RunKey and the config fingerprint; omitempty
	// keeps zero-warmup fingerprints identical to historical ones.
	Warmup int `json:",omitempty"`
}

// Default is the full-scale configuration used by cmd/lvmbench and the
// benchmarks (runtime: a few minutes).
func Default() Config {
	return Config{
		Workloads:      workload.SpeedupNames(),
		Params:         workload.DefaultParams(),
		Sim:            sim.ScaledConfig(),
		PhysSlackBytes: 1 << 30,
	}
}

// Quick is a reduced configuration for tests (runtime: seconds).
func Quick() Config {
	p := workload.QuickParams()
	p.GUPSTableBytes = 1 << 30
	p.MemcachedBytes = 512 << 20
	p.MumerBytes = 512 << 20
	p.GraphScale = 18
	p.TraceLen = 200_000
	return Config{
		Workloads:      []string{"bfs", "gups", "mem$"},
		Params:         p,
		Sim:            sim.ScaledConfig(),
		PhysSlackBytes: 1 << 29,
	}
}

// RunKey identifies one cached simulation. Warmup is part of the key
// because a warmed measured region produces different counters than a
// cold full-trace run — the two must never alias in the run cache.
type RunKey struct {
	Workload string
	Scheme   oskernel.Scheme
	THP      bool
	Warmup   int
}

func (k RunKey) String() string {
	if k.Warmup > 0 {
		return fmt.Sprintf("%s/%s thp=%t warmup=%d", k.Workload, k.Scheme, k.THP, k.Warmup)
	}
	return fmt.Sprintf("%s/%s thp=%t", k.Workload, k.Scheme, k.THP)
}

// RunOutput bundles a simulation result with the scheme-side statistics
// the characterization sections need.
type RunOutput struct {
	Sim sim.Result

	// LVM-side stats (zero for other schemes).
	IndexBytes     int
	IndexPeakBytes int
	IndexDepth     int
	IndexLeaves    int
	LWCHitRate     float64
	Retrains       uint64
	Rebuilds       uint64
	Overflows      uint64
	MgmtCycles     uint64

	// Radix-side stats.
	PWCPDEMissRate float64

	// Table overhead vs the 8-byte minimum (§7.3).
	OverheadBytes uint64

	// Collision stats measured over all mapped keys.
	CollisionRate float64
	ExtraPerColl  float64

	// HostSeconds is the run's host wall-clock time — observational only,
	// emitted into the JSON output solely under the -timings flag.
	HostSeconds float64
}

// Runner holds one sweep's workloads and the results of the plan tasks it
// executed: run outputs and measurements. ExecutePlan fills it on the
// scheduler's worker pool; the compute phases then only read it.
type Runner struct {
	Cfg  Config
	sink Sink

	wls *workload.Cache

	mu   sync.Mutex
	runs map[RunKey]*RunOutput  // guarded by mu
	meas map[string]measurement // guarded by mu
}

// NewRunner creates a runner. Progress reporting defaults to NopSink
// (quiet); inject a WriterSink for live output.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		Cfg:  cfg,
		sink: NopSink{},
		wls:  workload.NewCache(cfg.Params),
		runs: make(map[RunKey]*RunOutput),
		meas: make(map[string]measurement),
	}
}

// SetSink installs the progress event sink (nil restores quiet).
func (r *Runner) SetSink(s Sink) {
	if s == nil {
		s = NopSink{}
	}
	r.sink = s
}

// Workload returns the named workload, built once per runner (see
// workload.Cache): the tasks on the worker pool share each build.
func (r *Runner) Workload(name string) (*workload.Workload, error) {
	w, err := r.wls.Get(name)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	return w, nil
}

// EstimateCosts returns the scheduler's cost of the plan's tasks — the
// simulated physical memory each holds while in flight — computed from the
// workload-footprint estimator, so no workload is built. measures[i] is
// the cost of p.Experiments[i]'s measurement (zero without one) and
// runs[i] the cost of p.Runs[i]. The estimates are exact (the estimator
// reproduces the builders' sizing formulas), which is what lets lvmbench
// -list print the costs the scheduler charges without building anything.
func (r *Runner) EstimateCosts(p Plan) (measures, runs []uint64, err error) {
	measures = make([]uint64, len(p.Experiments))
	for i, e := range p.Experiments {
		if e.MeasureBytes == nil {
			continue
		}
		if measures[i], err = e.MeasureBytes(r.Cfg); err != nil {
			return nil, nil, fmt.Errorf("estimating cost of measurement %s: %w", e.Key, err)
		}
	}
	est := make(map[string]uint64)
	runs = make([]uint64, len(p.Runs))
	for i, k := range p.Runs {
		c, ok := est[k.Workload]
		if !ok {
			if c, err = r.Cfg.estimatedRunBytes(k.Workload); err != nil {
				return nil, nil, fmt.Errorf("estimating cost of %s: %w", k, err)
			}
			est[k.Workload] = c
		}
		runs[i] = c
	}
	return measures, runs, nil
}

// estimatedRunBytes is the cost of a run of the named workload, from its
// estimated footprint.
func (c Config) estimatedRunBytes(name string) (uint64, error) {
	fp, err := workload.EstimateFootprintBytes(name, c.Params)
	if err != nil {
		return 0, err
	}
	return c.RunCostBytes(fp), nil
}

// RunCostBytes is the footprint→physical-memory sizing formula for one run:
// the memory-budget cost a simulation of a workload with footprint fp holds
// while in flight, and the phys.Memory size it is given. Exported so
// admission controllers outside the batch runner (the lvmd serving daemon)
// charge tenants with exactly the formula the sweep scheduler uses.
func (c Config) RunCostBytes(fp uint64) uint64 {
	if c.PhysBytes != 0 {
		return c.PhysBytes
	}
	return fp + fp/2 + c.PhysSlackBytes
}

// lookupRun returns the executed output for key, if present.
func (r *Runner) lookupRun(key RunKey) (*RunOutput, bool) {
	r.mu.Lock()
	out, ok := r.runs[key]
	r.mu.Unlock()
	return out, ok
}

// physFor sizes simulated physical memory for a workload.
func (r *Runner) physFor(w *workload.Workload) *phys.Memory {
	return phys.New(r.Cfg.RunCostBytes(w.FootprintBytes()))
}

// newScaledSystem creates the OS layer with the sweep's proportionally
// scaled walk caches. Every simulation in the harness — the main Run path,
// the Table-2 scaling study, and the characterization one-offs — goes
// through this one constructor, so scheme-side statistics always come from
// identically configured systems.
func newScaledSystem(mem *phys.Memory, scheme oskernel.Scheme) *oskernel.System {
	pwc, lwc := sim.ScaledHW()
	return oskernel.NewSystemHW(mem, scheme, oskernel.HWConfig{PWCEntriesPerLevel: pwc, LWCEntries: lwc})
}

// launchScaled builds a scaled system over mem and launches space into it
// as ASID 1, the shared single-process launch path.
func launchScaled(mem *phys.Memory, scheme oskernel.Scheme, space *vas.AddressSpace, thp bool) (*oskernel.System, *oskernel.Process, error) {
	sys := newScaledSystem(mem, scheme)
	p, err := sys.Launch(1, space, thp)
	if err != nil {
		return nil, nil, err
	}
	return sys, p, nil
}

// NewRunMachine constructs the complete per-run simulation machine for one
// (workload, scheme, THP) configuration exactly as the sweep's execute
// path does: physical memory sized by RunCostBytes over the workload's
// footprint, the proportionally scaled system, the workload launched at
// ASID 1, and the configured CPU model (Midgard flagged by scheme). It is
// the bit-identity seam the lvmd serving daemon builds per-tenant machines
// through — a served session and a sweep run of the same key simulate on
// byte-identical state because both come from this one constructor.
func (c Config) NewRunMachine(w *workload.Workload, scheme oskernel.Scheme, thp bool) (*oskernel.System, *oskernel.Process, *sim.CPU, error) {
	sys, p, err := launchScaled(phys.New(c.RunCostBytes(w.FootprintBytes())), scheme, w.Space, thp)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := c.Sim
	cfg.Midgard = scheme == oskernel.SchemeMidgard
	return sys, p, sim.New(cfg, sys.Walker()), nil
}

// Run returns the output of one run the plan executed. A run the plan did
// not execute is an error naming it: nothing simulates outside ExecutePlan.
func (r *Runner) Run(name string, scheme oskernel.Scheme, thp bool) (*RunOutput, error) {
	key := RunKey{Workload: name, Scheme: scheme, THP: thp, Warmup: r.Cfg.Warmup}
	out, ok := r.lookupRun(key)
	if !ok {
		return nil, fmt.Errorf("experiments: run %s not in the plan", key)
	}
	return out, nil
}

// simulate performs one run; it is the unit of work a run task hands to a
// scheduler worker. Failures anywhere on the build/launch/run path come
// back as a wrapped error naming the RunKey.
func (r *Runner) simulate(key RunKey) (*RunOutput, error) {
	w, err := r.Workload(key.Workload)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", key, err)
	}
	r.sink.Emit(Event{Kind: RunStart, Key: key})
	sw := wallclock.Start()
	sys, p, cpu, err := r.Cfg.NewRunMachine(w, key.Scheme, key.THP)
	if err != nil {
		err = fmt.Errorf("run %s: launch: %w", key, err)
		r.sink.Emit(Event{Kind: RunDone, Key: key, Seconds: sw.Seconds(), Err: err})
		return nil, err
	}
	var res sim.Result
	if key.Warmup > 0 {
		n := cpu.FastForward(1, w, key.Warmup)
		res = cpu.RunFrom(1, w, n)
	} else {
		res = cpu.Run(1, w)
	}

	out := &RunOutput{Sim: res}
	if p != nil {
		out.OverheadBytes = sys.TableOverheadBytes(1)
		out.MgmtCycles = p.MgmtCycles
		if ix := p.LVMIndex(); ix != nil {
			st := ix.Stats()
			out.IndexBytes = ix.SizeBytes()
			out.IndexPeakBytes = st.PeakIndexBytes
			out.IndexDepth = ix.Depth()
			out.IndexLeaves = ix.LeafCount()
			out.Retrains = st.Retrains
			out.Rebuilds = st.Rebuilds
			out.Overflows = st.SearchOverflows
			out.LWCHitRate = sys.LVMWalker().LWC().HitRate()
			out.CollisionRate, out.ExtraPerColl = lvmCollisions(p)
		}
	}
	if rw := sys.RadixWalker(); rw != nil {
		_, _, pde := rw.PWCs()
		out.PWCPDEMissRate = pde.MissRate()
	}
	out.HostSeconds = sw.Seconds()
	r.sink.Emit(Event{Kind: RunDone, Key: key, Seconds: out.HostSeconds})
	// Simulated memories are large; let the GC reclaim between runs.
	runtime.GC()
	return out, nil
}

// lvmCollisions measures the §7.3 collision metrics by walking every
// mapped key once.
func lvmCollisions(p *oskernel.Process) (rate, extra float64) {
	var collided, total, extraRefs int
	ix := p.LVMIndex()
	for _, reg := range p.Space.Regions {
		for _, v := range reg.Mapped {
			res := ix.Walk(p.Norm.Normalize(v))
			if !res.Found {
				continue
			}
			total++
			if res.PTEAccesses > 1 {
				collided++
				extraRefs += res.PTEAccesses - 1
			}
		}
	}
	if total == 0 {
		return 0, 0
	}
	rate = float64(collided) / float64(total)
	if collided > 0 {
		extra = float64(extraRefs) / float64(collided)
	}
	return rate, extra
}

// speedup computes base/cycles with a zero guard.
func speedup(base, other float64) float64 {
	if other == 0 {
		return 0
	}
	return base / other
}

// pct renders a fraction as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
