package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"

	"lvm/internal/experiments/sched"
	"lvm/internal/wallclock"
)

// A Plan is the declarative first phase of the pipeline: the experiments
// to compute, and the deduplicated simulations they require in a
// deterministic (first-appearance) order. The experiments with a Measure
// add one measurement task each.
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

// DefaultMemBudgetBytes bounds the summed admission charges of in-flight
// tasks, runs and measurements. A task's charge is its simulated physical
// memory scaled by sched.CostModel's correction, the observed heap over the
// estimate of completed tasks clamped to 0.25–4×. Host memory per run is a
// fraction of the simulated size (page tables plus allocator metadata, not
// data pages), so at full scale the correction settles at its 0.25× floor
// and up to four times this budget in simulated footprint runs at once;
// the default still keeps a full-scale sweep comfortably inside a 16 GB
// machine.
const DefaultMemBudgetBytes = 32 << 30

// ExecOptions bounds a plan execution.
type ExecOptions struct {
	// Workers is the number of simulation worker goroutines (min 1).
	Workers int
	// MemBudgetBytes caps the summed admission charges of in-flight tasks:
	// simulated footprints corrected by observed heap (0.25–4×; 0 means
	// DefaultMemBudgetBytes; see sched.Options).
	MemBudgetBytes uint64
	// Cache, when non-nil, is consulted before each task (hits skip it
	// entirely) and updated with every newly executed one.
	Cache *RunCache
}

// A measurement is one experiment's Measure result as compact JSON, and
// where it came from, for errors.
type measurement struct {
	payload []byte
	from    string
}

// A task is one unit of the execute phase: the measurement of exp when it
// is non-nil, else the simulation of run.
type task struct {
	exp *Experiment
	run RunKey
}

// taskResult is what one task leaves behind: a run's output, or a
// measurement's JSON and host time.
type taskResult struct {
	run     *RunOutput
	payload []byte
	seconds float64
}

// Execute selects the experiments named by keys (every experiment when
// none is given), plans them and executes the plan. Runs and measurements
// already in the runner are not executed again, so repeated calls share
// one sweep's work.
func (r *Runner) Execute(opt ExecOptions, keys ...string) ([]Result, error) {
	exps, err := Select(keys...)
	if err != nil {
		return nil, err
	}
	return r.ExecutePlan(NewPlan(r.Cfg, exps), opt)
}

// ExecutePlan runs the pipeline. The execute phase skips the tasks already
// in the runner or restorable from the run cache, builds the workloads the
// pending runs need, and executes the pending measurements (first, in
// registry order) and runs (in plan order) on one worker pool; it merges
// and stores their results in that order. Then each experiment's Compute
// renders its result from what the runner holds. The returned results —
// tables, summaries, and raw structs — are bit-for-bit identical at any
// worker count and whether the tasks ran here or were restored from a run
// cache; only the Sink's progress stream reflects scheduling.
func (r *Runner) ExecutePlan(p Plan, opt ExecOptions) ([]Result, error) {
	if err := r.executeTasks(p, opt); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
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

// executeTasks is ExecutePlan's execute phase.
func (r *Runner) executeTasks(p Plan, opt ExecOptions) error {
	if opt.MemBudgetBytes == 0 {
		opt.MemBudgetBytes = DefaultMemBudgetBytes
	}
	measureCosts, runCosts, err := r.EstimateCosts(p)
	if err != nil {
		return err
	}
	var pending []sched.Task[task]
	for i := range p.Experiments {
		if e := &p.Experiments[i]; e.Measure != nil {
			pending = append(pending, sched.Task[task]{Key: task{exp: e}, CostBytes: measureCosts[i]})
		}
	}
	for i, k := range p.Runs {
		pending = append(pending, sched.Task[task]{Key: task{run: k}, CostBytes: runCosts[i]})
	}
	// Drop tasks already in memory (a warm runner), then tasks restorable
	// from the persistent cache. What remains actually executes.
	tasks := pending[:0]
	for _, t := range pending {
		done, err := r.restore(t.Key, opt.Cache)
		if err != nil {
			return err
		}
		if !done {
			tasks = append(tasks, t)
		}
	}
	if len(tasks) == 0 {
		return nil
	}

	// Build the workloads the pending runs need — and only those — on the
	// worker pool before any task starts; a measurement builds what else
	// it needs through the same once-per-workload cache.
	var names []sched.Task[string]
	seen := make(map[string]bool)
	for _, t := range tasks {
		if name := t.Key.run.Workload; t.Key.exp == nil && !seen[name] {
			seen[name] = true
			names = append(names, sched.Task[string]{Key: name})
		}
	}
	if _, err := sched.Run(names, sched.Options{Workers: opt.Workers}, r.Workload); err != nil {
		return err
	}

	schedOpt := sched.Options{
		Workers:     opt.Workers,
		BudgetBytes: opt.MemBudgetBytes,
		// Correct footprint estimates with the observed host-memory samples
		// as the sweep progresses; admission-only, so results and ordering
		// stay byte-identical.
		CostModel: sched.NewCostModel(),
		ObserveMem: func(ti int, s sched.MemSample) {
			e := Event{Kind: RunHostMem, Key: tasks[ti].Key.run, Mem: s}
			if x := tasks[ti].Key.exp; x != nil {
				e.Experiment = x.Key
			}
			r.sink.Emit(e)
		},
	}
	outs, err := sched.Run(tasks, schedOpt, r.executeTask)
	if err != nil {
		return err
	}
	// Merge and store in task order — a fixed, deterministic order
	// independent of which worker finished when.
	r.mu.Lock()
	for i, t := range tasks {
		if t.Key.exp != nil {
			r.meas[t.Key.exp.Key] = measurement{payload: outs[i].payload, from: "measurement " + t.Key.exp.Key}
		} else {
			r.runs[t.Key.run] = outs[i].run
		}
	}
	r.mu.Unlock()
	if opt.Cache == nil {
		return nil
	}
	for i, t := range tasks {
		if t.Key.exp != nil {
			err = opt.Cache.Store(t.Key.exp.Key, json.RawMessage(outs[i].payload), outs[i].seconds)
		} else {
			err = opt.Cache.storeRun(t.Key.run, outs[i].run)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// executeTask runs one task on a scheduler worker.
func (r *Runner) executeTask(t task) (taskResult, error) {
	if t.exp == nil {
		out, err := r.simulate(t.run)
		return taskResult{run: out}, err
	}
	key := t.exp.Key
	r.sink.Emit(Event{Kind: RunStart, Experiment: key})
	sw := wallclock.Start()
	v, err := t.exp.Measure(r)
	var payload []byte
	if err == nil {
		payload, err = json.Marshal(v)
	}
	if err != nil {
		err = fmt.Errorf("measure %s: %w", key, err)
	}
	secs := sw.Seconds()
	r.sink.Emit(Event{Kind: RunDone, Experiment: key, Seconds: secs, Err: err})
	// Measurements simulate on memories as large as runs do; let the GC
	// reclaim them before the worker takes its next task.
	runtime.GC()
	return taskResult{payload: payload, seconds: secs}, err
}

// restore reports whether t's result is in the runner, first installing it
// from c (nil for none) when the run cache holds it; a restore emits
// RunCached.
func (r *Runner) restore(t task, c *RunCache) (bool, error) {
	var ran bool
	r.mu.Lock()
	if t.exp != nil {
		_, ran = r.meas[t.exp.Key]
	} else {
		_, ran = r.runs[t.run]
	}
	r.mu.Unlock()
	if ran {
		return true, nil
	}
	if c == nil {
		return false, nil
	}
	if t.exp == nil {
		out, hit, err := c.loadRun(t.run)
		if err != nil || !hit {
			return false, err
		}
		r.mu.Lock()
		r.runs[t.run] = out
		r.mu.Unlock()
		r.sink.Emit(Event{Kind: RunCached, Key: t.run})
		return true, nil
	}
	key := t.exp.Key
	var raw json.RawMessage
	_, hit, err := c.Load(key, &raw)
	if err != nil || !hit {
		return false, err
	}
	var payload bytes.Buffer
	if err := json.Compact(&payload, raw); err != nil {
		return false, fmt.Errorf("run cache: %s: corrupt entry %s: %w", key, c.path(key), err)
	}
	r.mu.Lock()
	r.meas[key] = measurement{payload: payload.Bytes(), from: fmt.Sprintf("run cache: %s: entry %s", key, c.path(key))}
	r.mu.Unlock()
	r.sink.Emit(Event{Kind: RunCached, Experiment: key})
	return true, nil
}

// measurementOf decodes the measurement of experiment key that the plan
// executed; a measurement the plan did not execute is an error naming it.
// The payload must be exactly what json.Marshal writes for the T it
// decodes to, on the cold pass and the warm one alike, so both render from
// the same bytes, and a field missing, stray or renamed in a restored entry
// is an error naming the entry, never a zero in a table.
func measurementOf[T any](r *Runner, key string) (T, error) {
	var v T
	r.mu.Lock()
	m, ok := r.meas[key]
	r.mu.Unlock()
	if !ok {
		return v, fmt.Errorf("measurement %s not in the plan", key)
	}
	if err := json.Unmarshal(m.payload, &v); err != nil {
		return v, fmt.Errorf("%s: %w", m.from, err)
	}
	if canon, err := json.Marshal(v); err != nil || !bytes.Equal(canon, m.payload) {
		return v, fmt.Errorf("%s is not in the form Store writes", m.from)
	}
	return v, nil
}
