package experiments

import (
	"fmt"
	"io"
	"sync"

	"lvm/internal/experiments/sched"
)

// EventKind names one progress event of the experiment pipeline.
type EventKind int

// The Run* kinds report plan tasks: a simulation, named by Key, or an
// experiment's measurement, named by Experiment.
const (
	RunStart        EventKind = iota + 1 // a task was admitted to a worker
	RunDone                              // a task finished (Err on failure)
	RunCached                            // restored from the run cache: no RunStart/RunDone
	RunHostMem                           // Mem holds a completed task's host-memory sample
	ExperimentStart                      // before an experiment's compute phase
	ExperimentDone                       // after it (Err on failure)
)

// An Event is one progress report: Kind says what happened, and only the
// fields that kind documents are set. Timings and memory samples are
// host-side measurements (internal/wallclock, runtime.MemStats): all of it
// is observational. No simulated result ever depends on an event, and
// sinks should keep events off any stream that is compared across runs.
type Event struct {
	Kind EventKind
	// Key is the run of a Run* event about a simulation.
	Key RunKey
	// Experiment is the key of an Experiment* event, and of a Run* event
	// about that experiment's measurement; Title is set on
	// ExperimentStart.
	Experiment, Title string
	// Seconds is the host wall-clock time of a RunDone or ExperimentDone.
	Seconds float64
	// Err is the failure of a RunDone or ExperimentDone.
	Err error
	// Mem is RunHostMem's sample (see sched.MemSample for what the
	// numbers mean).
	Mem sched.MemSample
}

// A Sink receives progress events from the experiment pipeline. The runner
// calls it from worker goroutines, so implementations must be safe for
// concurrent use.
type Sink interface {
	Emit(Event)
}

// NopSink discards all events; it is the default for benchmarks and tests.
type NopSink struct{}

func (NopSink) Emit(Event) {}

// WriterSink streams human-readable progress lines to w. cmd/lvmbench
// points it at stderr so that stdout — the tables — stays byte-identical
// across runs and worker counts while live progress and timings remain
// visible.
type WriterSink struct {
	mu sync.Mutex
	w  io.Writer // guarded by mu
}

// NewWriterSink creates a sink writing progress lines to w.
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// task names the run or measurement of a Run* event.
func (e Event) task() string {
	if e.Experiment != "" {
		return e.Experiment
	}
	return e.Key.String()
}

// Emit writes e's line; an unknown kind writes nothing.
func (s *WriterSink) Emit(e Event) {
	task := e.task()
	var line string
	switch e.Kind {
	case RunStart:
		line = fmt.Sprintf("  running %s...", task)
	case RunDone:
		if e.Err != nil {
			line = fmt.Sprintf("  FAILED  %s after %.1fs: %v", task, e.Seconds, e.Err)
		} else {
			line = fmt.Sprintf("  done    %s in %.1fs", task, e.Seconds)
		}
	case RunCached:
		line = fmt.Sprintf("  cached  %s", task)
	case RunHostMem:
		line = fmt.Sprintf("  mem     %s: %.1f MiB allocated, %.1f MiB heap in use",
			task, float64(e.Mem.AllocBytes)/(1<<20), float64(e.Mem.HeapInuseBytes)/(1<<20))
	case ExperimentStart:
		line = fmt.Sprintf("== %s: %s", e.Experiment, e.Title)
	case ExperimentDone:
		if e.Err != nil {
			line = fmt.Sprintf("== %s FAILED after %.1fs: %v", e.Experiment, e.Seconds, e.Err)
		} else {
			line = fmt.Sprintf("== %s computed in %.1fs", e.Experiment, e.Seconds)
		}
	default:
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintln(s.w, line)
}
