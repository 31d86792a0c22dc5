package experiments

import (
	"fmt"

	"lvm/internal/experiments/sched"
	"lvm/internal/wallclock"
)

// A Plan is the declarative first phase of the pipeline: the experiments
// to compute, and the deduplicated simulations they require in a
// deterministic (first-appearance) order.
type Plan struct {
	Experiments []Experiment
	Runs        []RunKey
}

// NewPlan collects the RunKeys of the selected experiments in registry
// order and dedupes them. The result depends only on cfg and the
// selection, never on scheduling.
func NewPlan(cfg Config, exps []Experiment) Plan {
	seen := make(map[RunKey]bool)
	var runs []RunKey
	for _, e := range exps {
		if e.Requires == nil {
			continue
		}
		for _, k := range e.Requires(cfg) {
			// Stamp the sweep-wide warmup onto every required key here, so
			// Requires implementations stay warmup-oblivious.
			k.Warmup = cfg.Warmup
			if !seen[k] {
				seen[k] = true
				runs = append(runs, k)
			}
		}
	}
	return Plan{Experiments: exps, Runs: runs}
}

// DefaultMemBudgetBytes bounds the summed simulated physical memory of
// in-flight runs. Host memory per run is a fraction of the simulated size
// (page tables plus allocator metadata, not data pages), so this default
// keeps a full-scale sweep comfortably inside a 16 GB machine while still
// admitting several multi-GB runs at once.
const DefaultMemBudgetBytes = 32 << 30

// ExecOptions bounds a plan execution.
type ExecOptions struct {
	// Workers is the number of simulation worker goroutines (min 1).
	Workers int
	// MemBudgetBytes caps the summed simulated footprint of in-flight
	// runs (0 means DefaultMemBudgetBytes; see sched.Options).
	MemBudgetBytes uint64
	// Cache, when non-nil, is consulted before simulating (hits skip the
	// simulation entirely) and updated with every newly computed run.
	Cache *RunCache
}

// ExecuteRuns runs the pipeline's execute phase: skip the runs already
// computed or restorable from the run cache, build the workloads the
// remainder needs in parallel, execute them on the worker pool, and merge
// the outputs into the runner in plan order. The runner's state after
// ExecuteRuns is bit-for-bit independent of worker count and of the
// cold/warm split; only the Sink's progress stream reflects scheduling.
func (r *Runner) ExecuteRuns(p Plan, opt ExecOptions) error {
	if opt.MemBudgetBytes == 0 {
		opt.MemBudgetBytes = DefaultMemBudgetBytes
	}

	// Drop runs already in memory (a warm runner), then runs restorable
	// from the persistent cache. What remains is the pending set that
	// actually simulates.
	var pending []int
	for i, k := range p.Runs {
		done, err := r.restoreRun(k, opt.Cache)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		if !done {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return nil
	}

	// Build the workloads the pending runs need — and only those — on the
	// worker pool, in deterministic first-appearance order.
	var names []string
	seenWl := make(map[string]bool)
	for _, i := range pending {
		if k := p.Runs[i]; !seenWl[k.Workload] {
			seenWl[k.Workload] = true
			names = append(names, k.Workload)
		}
	}
	if err := r.BuildWorkloads(names, opt.Workers); err != nil {
		return err
	}

	tasks := make([]sched.Task[RunKey], len(pending))
	for ti, i := range pending {
		w, err := r.Workload(p.Runs[i].Workload)
		if err != nil {
			return err
		}
		tasks[ti] = sched.Task[RunKey]{Key: p.Runs[i], CostBytes: r.runBytes(w)}
	}
	schedOpt := sched.Options{
		Workers:     opt.Workers,
		BudgetBytes: opt.MemBudgetBytes,
		// Correct footprint estimates with the observed host-memory samples
		// as the sweep progresses; admission-only, so results and ordering
		// stay byte-identical.
		CostModel: sched.NewCostModel(),
		ObserveMem: func(ti int, s sched.MemSample) {
			r.sink.Emit(Event{Kind: RunHostMem, Key: p.Runs[pending[ti]], Mem: s})
		},
	}
	outs, err := sched.Run(tasks, schedOpt, r.execute)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	// Merge in plan order — a fixed, deterministic key order independent
	// of which worker finished when.
	r.mu.Lock()
	for ti, i := range pending {
		r.runs[p.Runs[i]] = outs[ti]
	}
	r.mu.Unlock()
	if opt.Cache != nil {
		for ti, i := range pending {
			if err := opt.Cache.Store(p.Runs[i], outs[ti]); err != nil {
				return fmt.Errorf("experiments: %w", err)
			}
		}
	}
	return nil
}

// ExecutePlan runs the full pipeline: the execute phase over the whole run
// matrix (ExecuteRuns), then each experiment's compute phase sequentially.
// The returned results — tables, summaries, and raw structs — are
// bit-for-bit identical at any worker count and whether the runs were
// simulated here or restored from a run cache.
func (r *Runner) ExecutePlan(p Plan, opt ExecOptions) ([]Result, error) {
	if opt.Cache != nil {
		// Let the compute phase's bespoke measurements persist their
		// artifacts alongside the run outputs.
		r.SetArtifactCache(opt.Cache)
	}
	if err := r.ExecuteRuns(p, opt); err != nil {
		return nil, err
	}

	results := make([]Result, 0, len(p.Experiments))
	for _, e := range p.Experiments {
		r.sink.Emit(Event{Kind: ExperimentStart, Experiment: e.Key, Title: e.Title})
		sw := wallclock.Start()
		res, err := e.Compute(r)
		r.sink.Emit(Event{Kind: ExperimentDone, Experiment: e.Key, Seconds: sw.Seconds(), Err: err})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Key, err)
		}
		res.Key, res.Title = e.Key, e.Title
		results = append(results, res)
	}
	return results, nil
}
