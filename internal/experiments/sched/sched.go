// Package sched executes a batch of independent simulation tasks on a
// bounded pool of worker goroutines while keeping the observable output
// bit-for-bit identical at any worker count.
//
// Determinism is structural, not accidental: results are written into a
// slice slot fixed by each task's position in the input, and errors are
// reported joined in input order, so neither completion order nor goroutine
// interleaving can leak into what callers see. This is the property the
// lvmlint nondeterm analyzer guards across the experiment stack — the
// scheduler upholds it by construction and never iterates a map.
//
// Parallelism is bounded twice: by Workers (goroutines) and by BudgetBytes
// (the sum of in-flight tasks' CostBytes). Simulation runs each hold a
// multi-gigabyte simulated phys.Memory plus its page tables, so the
// binding constraint on real machines is footprint, not GOMAXPROCS; the
// budget semaphore admits a new task only when its cost fits.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Task is one unit of work: an opaque key plus its peak memory claim.
type Task[K any] struct {
	// Key identifies the work; it is handed verbatim to the exec function.
	Key K
	// CostBytes is the task's peak memory claim counted against
	// Options.BudgetBytes while the task is in flight. Tasks costing more
	// than the whole budget are clamped to it, so they still run — alone.
	CostBytes uint64
}

// Options bounds a batch execution.
type Options struct {
	// Workers is the number of worker goroutines (values < 1 mean 1).
	Workers int
	// BudgetBytes caps the summed charges of in-flight tasks (0 means
	// unbounded). A task's charge is its CostBytes, or, with a CostModel,
	// its CostBytes corrected by observed heap (0.25–4×): the budget then
	// bounds corrected charges, not the summed CostBytes, which may reach
	// four times it.
	BudgetBytes uint64
	// ObserveMem, when non-nil, receives a host-memory sample for each
	// task after it completes, keyed by the task's input index. Samples
	// are observational — they never influence results or scheduling —
	// and implementations must be safe for concurrent calls from workers.
	ObserveMem func(taskIndex int, s MemSample)
	// CostModel, when non-nil, corrects each task's CostBytes with the
	// host-memory samples of already-completed tasks before charging it
	// against BudgetBytes, and is fed every completed task's sample. The
	// correction is clamped to 0.25–4×, so a host heap far below the
	// estimates (a full-scale sweep's) admits up to 4× BudgetBytes of
	// CostBytes. It affects only admission timing, never results or their
	// order.
	CostModel *CostModel
}

// MemSample is a host-side memory observation for one task, taken with
// runtime.ReadMemStats around the task's execution.
type MemSample struct {
	// AllocBytes is the growth of the process's cumulative heap
	// allocation (MemStats.TotalAlloc) across the task. The counter is
	// process-global, so with concurrent workers allocations of
	// overlapping tasks are attributed to every task in flight — read it
	// as an upper bound on the task's own allocation (exact at Workers=1).
	AllocBytes uint64
	// HeapInuseBytes is the live heap at task completion — the actual
	// resident set the batch needs while this task's results are held.
	HeapInuseBytes uint64
}

// sampleMem wraps exec with before/after runtime.ReadMemStats reads.
func sampleMem[K any, V any](exec func(K) (V, error), key K) (V, error, MemSample) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := exec(key)
	runtime.ReadMemStats(&after)
	return v, err, MemSample{
		AllocBytes:     after.TotalAlloc - before.TotalAlloc,
		HeapInuseBytes: after.HeapInuse,
	}
}

// Run executes exec once per task and returns the results aligned with the
// input order: out[i] is the result for tasks[i]. Every task runs to
// completion even when others fail, so the error value — all failures
// wrapped and joined in input order — does not depend on scheduling. A
// failed task leaves its slot at the zero value.
func Run[K any, V any](tasks []Task[K], opt Options, exec func(K) (V, error)) ([]V, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	out := make([]V, len(tasks))
	errs := make([]error, len(tasks))
	if len(tasks) == 0 {
		return out, nil
	}

	adm := NewAdmission(opt.BudgetBytes, opt.CostModel)
	next := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				// Charge the (possibly corrected) cost, and release exactly
				// what was charged even if the model has since moved.
				charge, _ := adm.Acquire(t.CostBytes, nil)
				var v V
				var err error
				if opt.ObserveMem != nil || opt.CostModel != nil {
					var s MemSample
					v, err, s = sampleMem(exec, t.Key)
					if opt.ObserveMem != nil {
						opt.ObserveMem(i, s)
					}
					adm.Observe(t.CostBytes, s)
				} else {
					v, err = exec(t.Key)
				}
				adm.Release(charge)
				// Each goroutine writes only its own slots; the final
				// wg.Wait orders these writes before any read.
				out[i] = v
				errs[i] = err
			}
		}()
	}
	wg.Wait()

	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("task %d: %w", i, err))
		}
	}
	return out, errors.Join(failed...)
}
