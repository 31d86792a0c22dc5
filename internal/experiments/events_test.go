package experiments

import (
	"bytes"
	"errors"
	"testing"

	"lvm/internal/experiments/sched"
	"lvm/internal/oskernel"
)

// writerSinkGolden is the exact text WriterSink renders for every progress
// event, including the failure variants. CI greps these prefixes
// ('^  running ', '^  cached  '), so a change here is a change to what the
// smoke steps assert.
const writerSinkGolden = `== fig9: Figure 9 — walk latency
  running mem$/lvm thp=false...
  done    mem$/lvm thp=false in 1.5s
  running gups/radix thp=true warmup=50000...
  FAILED  gups/radix thp=true warmup=50000 after 0.2s: launch: out of memory
  mem     mem$/lvm thp=false: 3.0 MiB allocated, 1.5 MiB heap in use
  cached  bfs/ecpt thp=false
  running fragmentation...
  done    fragmentation in 3.1s
  mem     fragmentation: 2.0 MiB allocated, 1.0 MiB heap in use
  FAILED  tail after 0.4s: launch: out of memory
  cached  ptwl1
== fig9 computed in 12.3s
== table2 FAILED after 0.1s: run gups/radix thp=true: launch: out of memory
`

// driveEveryEvent sends one of each progress event, for a run and for a
// measurement, in the golden's order.
func driveEveryEvent(s *WriterSink) {
	ok := RunKey{Workload: "mem$", Scheme: oskernel.SchemeLVM}
	bad := RunKey{Workload: "gups", Scheme: oskernel.SchemeRadix, THP: true, Warmup: 50000}
	hit := RunKey{Workload: "bfs", Scheme: oskernel.SchemeECPT}

	for _, e := range []Event{
		{Kind: ExperimentStart, Experiment: "fig9", Title: "Figure 9 — walk latency"},
		{Kind: RunStart, Key: ok},
		{Kind: RunDone, Key: ok, Seconds: 1.5},
		{Kind: RunStart, Key: bad},
		{Kind: RunDone, Key: bad, Seconds: 0.2, Err: errors.New("launch: out of memory")},
		{Kind: RunHostMem, Key: ok, Mem: sched.MemSample{AllocBytes: 3 << 20, HeapInuseBytes: 3 << 19}},
		{Kind: RunCached, Key: hit},
		{Kind: RunStart, Experiment: "fragmentation"},
		{Kind: RunDone, Experiment: "fragmentation", Seconds: 3.1},
		{Kind: RunHostMem, Experiment: "fragmentation", Mem: sched.MemSample{AllocBytes: 2 << 20, HeapInuseBytes: 1 << 20}},
		{Kind: RunDone, Experiment: "tail", Seconds: 0.4, Err: errors.New("launch: out of memory")},
		{Kind: RunCached, Experiment: "ptwl1"},
		{Kind: ExperimentDone, Experiment: "fig9", Seconds: 12.3},
		{Kind: ExperimentDone, Experiment: "table2", Seconds: 0.1, Err: errors.New("run gups/radix thp=true: launch: out of memory")},
		{}, // an unknown kind renders nothing
	} {
		s.Emit(e)
	}
}

// WriterSink's text is what operators read and CI greps: every event must
// render byte for byte as the golden says.
func TestWriterSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	driveEveryEvent(NewWriterSink(&buf))
	if got := buf.String(); got != writerSinkGolden {
		t.Errorf("WriterSink output differs from the golden\n--- got ---\n%s--- want ---\n%s", got, writerSinkGolden)
	}
}
