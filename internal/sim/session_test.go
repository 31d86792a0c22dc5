// Tests for the resumable Session: any Step chunking must be a pure
// performance knob (bit-identical Result and interval deltas vs the
// one-shot loop), streamed traces must match preloaded ones, and Step must
// stay off the heap — it is the serving hot loop.
package sim

import (
	"reflect"
	"testing"

	"lvm/internal/oskernel"
)

// TestSessionMatchesRun drives a Session in deliberately irregular chunks
// and requires the sealed Result to deeply equal a one-shot Run on an
// identical machine.
func TestSessionMatchesRun(t *testing.T) {
	p := hitParams()
	for _, scheme := range []oskernel.Scheme{oskernel.SchemeLVM, oskernel.SchemeRadix} {
		t.Run(string(scheme), func(t *testing.T) {
			cpuA, _, w := benchCPU(t, scheme, false, p)
			want := cpuA.Run(1, w)

			cpuB, _, _ := benchCPU(t, scheme, false, p)
			s := cpuB.NewSession(1, w)
			for _, n := range []int{1, 13, 50, 7} {
				s.Step(n)
			}
			for !s.Done() {
				s.Step(997)
			}
			got := s.Finish()
			if !reflect.DeepEqual(want, got) {
				t.Errorf("chunked session diverges from Run:\n run: %+v\nsess: %+v", want, got)
			}
			if s.Step(10) != 0 {
				t.Error("Step after Finish consumed accesses")
			}
			if again := s.Finish(); !reflect.DeepEqual(want, again) {
				t.Error("Finish is not idempotent")
			}
		})
	}
}

// TestSessionIntervalsMatchRunIntervals is the serving bit-identity
// contract: stepping `every` accesses at a time and cutting snapshot
// deltas between steps must reproduce RunIntervals' windows and Result
// exactly — this is what lets lvmd stream per-tenant windows that equal a
// standalone run.
func TestSessionIntervalsMatchRunIntervals(t *testing.T) {
	p := hitParams()
	const every = 777
	cpuA, _, w := benchCPU(t, oskernel.SchemeLVM, false, p)
	wantRes, wantIv := cpuA.RunIntervals(1, w, every)

	cpuB, _, _ := benchCPU(t, oskernel.SchemeLVM, false, p)
	s := cpuB.NewSession(1, w)
	var gotIv []Interval
	prev := cpuB.Snapshot()
	for !s.Done() {
		start := s.Pos()
		s.Step(every)
		cur := cpuB.Snapshot()
		gotIv = append(gotIv, Interval{Start: start, End: s.Pos(), Metrics: cur.Delta(prev)})
		prev = cur
	}
	gotRes := s.Finish()
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Errorf("interval-stepped session Result diverges from RunIntervals")
	}
	if !reflect.DeepEqual(wantIv, gotIv) {
		t.Errorf("session interval windows diverge from RunIntervals (%d vs %d intervals)",
			len(gotIv), len(wantIv))
	}
}

// TestStreamSessionMatchesRun feeds the trace incrementally through Extend
// — interleaving input arrival with Step draining, as the wire path does —
// and requires the Result to equal a one-shot Run over the same trace.
func TestStreamSessionMatchesRun(t *testing.T) {
	p := hitParams()
	cpuA, _, w := benchCPU(t, oskernel.SchemeLVM, false, p)
	want := cpuA.Run(1, w)

	cpuB, _, _ := benchCPU(t, oskernel.SchemeLVM, false, p)
	s := cpuB.NewStreamSession(1, w.Name, w.InstrsPerAccess)
	for i := 0; i < len(w.Accesses); {
		end := i + 501
		if end > len(w.Accesses) {
			end = len(w.Accesses)
		}
		s.Extend(w.Accesses[i:end])
		i = end
		for !s.Done() {
			s.Step(100)
		}
	}
	got := s.Finish()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("stream session diverges from Run:\n run: %+v\nsess: %+v", want, got)
	}
}

// TestSessionStepZeroAllocs seals the serving hot loop for every scheme:
// once machine scratch is warm, a Step of DefaultBatchSize accesses must
// not touch the heap (session creation and Finish may; the per-chunk drive
// loop may not).
func TestSessionStepZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short's reduced fixtures")
	}
	for _, scheme := range oskernel.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			cpu, _, w := benchCPU(t, scheme, false, benchParams())
			cpu.Run(1, w)
			cpu.Run(1, w)
			s := cpu.NewSession(1, w)
			n := len(w.Accesses)
			allocs := testing.AllocsPerRun(n/DefaultBatchSize, func() {
				if s.Step(DefaultBatchSize) == 0 {
					s = cpu.NewSession(1, w) // session drained; renew outside measurement interest
				}
			})
			// One renewal allocation amortized across n/batch runs rounds to
			// zero; any per-Step allocation would not.
			if allocs >= 1 {
				t.Errorf("%s: %.2f allocs per steady-state Step, want 0", scheme, allocs)
			}
		})
	}
}
