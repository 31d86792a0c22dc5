// Tests for the chunking and warm-start seams of the one translation loop:
// how a trace is split into Session steps must be a pure performance knob
// (bit-identical Results, intervals and latencies at any chunk size), and
// fast-forward warmup must leave component state exactly where a timing
// run over the same prefix would.
package sim

import (
	"reflect"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/mmu"
	"lvm/internal/oskernel"
	"lvm/internal/workload"
)

// chunkSizes spans single-access steps (1), chunks that never align with
// anything (7), a partial chunk (8), and DefaultBatchSize (64).
var chunkSizes = []int{1, 7, 8, 64}

// stepInChunks drives a fresh session over the whole trace in Step chunks
// of the given size and returns its sealed Result.
func stepInChunks(cpu *CPU, w *workload.Workload, chunk int) Result {
	s := cpu.NewSession(1, w)
	for !s.Done() {
		s.Step(chunk)
	}
	return s.Finish()
}

// TestBatchBitIdentity is the chunking contract lvmd relies on: for every
// scheme, a Session stepped in chunks of any size produces a Result —
// scalar counters, float cycle sums, and the full component metric
// snapshot — deeply equal to a one-shot Run.
func TestBatchBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace comparison across chunk sizes is slow under -short")
	}
	p := benchParams()
	for _, scheme := range oskernel.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			cpuA, _, w := benchCPU(t, scheme, false, p)
			want := cpuA.Run(1, w)
			for _, chunk := range chunkSizes {
				cpuB, _, _ := benchCPU(t, scheme, false, p)
				if got := stepInChunks(cpuB, w, chunk); !reflect.DeepEqual(want, got) {
					t.Errorf("chunk %d diverges from Run: run %+v, session %+v", chunk, want, got)
				}
			}
		})
	}
}

// TestRunFromZeroMatchesRun pins RunFrom(0) to the exact Run path.
func TestRunFromZeroMatchesRun(t *testing.T) {
	p := hitParams()
	cpuA, _, w := benchCPU(t, oskernel.SchemeLVM, false, p)
	cpuB, _, _ := benchCPU(t, oskernel.SchemeLVM, false, p)
	want := cpuA.Run(1, w)
	got := cpuB.RunFrom(1, w, 0)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("RunFrom(0) diverges from Run:\n run: %+v\nfrom: %+v", want, got)
	}
}

// TestWarmStartEquivalence proves FastForward's state-equivalence claim:
// fast-forwarding a prefix and measuring the suffix must produce exactly
// the metrics of running the prefix with full timing and then measuring
// the same suffix — the functional stream touches every state machine
// (TLBs, walk caches, cache tags, DRAM rows) identically.
func TestWarmStartEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("prefix+suffix comparison is slow under -short")
	}
	p := benchParams()
	for _, scheme := range oskernel.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			cpuA, _, w := benchCPU(t, scheme, false, p)
			cpuB, _, _ := benchCPU(t, scheme, false, p)
			n := len(w.Accesses) / 3

			if got := cpuA.FastForward(1, w, n); got != n {
				t.Fatalf("FastForward consumed %d accesses, want %d", got, n)
			}
			fast := cpuA.RunFrom(1, w, n)

			prefix := *w
			prefix.Accesses = w.Accesses[:n]
			cpuB.Run(1, &prefix)
			timed := cpuB.RunFrom(1, w, n)

			if !reflect.DeepEqual(fast, timed) {
				t.Errorf("warm start diverges from timed prefix:\nfast:  %+v\ntimed: %+v", fast, timed)
			}
		})
	}
}

// TestRunIntervalsBatchBoundaries locks the interval windows in place when
// Step chunks do not divide the window: a Session stepped in chunks clamped
// to the next boundary of an `every` co-prime with every chunk size (the
// way lvmd cuts windows) must yield RunIntervals' exact deltas.
func TestRunIntervalsBatchBoundaries(t *testing.T) {
	p := hitParams()
	const every = 777
	cpuA, _, w := benchCPU(t, oskernel.SchemeRadix, false, p)
	wantRes, wantIv := cpuA.RunIntervals(1, w, every)
	for _, chunk := range chunkSizes[1:] {
		cpuB, _, _ := benchCPU(t, oskernel.SchemeRadix, false, p)
		s := cpuB.NewSession(1, w)
		var gotIv []Interval
		prev := cpuB.Snapshot()
		start := 0
		for !s.Done() {
			s.Step(min(chunk, start+every-s.Pos()))
			if s.Pos()%every == 0 || s.Done() {
				cur := cpuB.Snapshot()
				gotIv = append(gotIv, Interval{Start: start, End: s.Pos(), Metrics: cur.Delta(prev)})
				prev, start = cur, s.Pos()
			}
		}
		if gotRes := s.Finish(); !reflect.DeepEqual(wantRes, gotRes) {
			t.Errorf("chunk %d: session Result diverges from RunIntervals", chunk)
		}
		if !reflect.DeepEqual(wantIv, gotIv) {
			t.Errorf("chunk %d: interval windows diverge from RunIntervals (%d vs %d intervals)",
				chunk, len(gotIv), len(wantIv))
		}
	}
}

// TestRunTailBatchIdentity checks the per-access latency stream the tail
// study consumes: a hook charging zero extra cycles must leave the Result
// and every latency exactly as the hook-free run has them, and that Result
// must equal Run's.
func TestRunTailBatchIdentity(t *testing.T) {
	p := hitParams()
	cpuA, _, w := benchCPU(t, oskernel.SchemeLVM, false, p)
	cpuB, _, _ := benchCPU(t, oskernel.SchemeLVM, false, p)
	cpuC, _, _ := benchCPU(t, oskernel.SchemeLVM, false, p)
	want := cpuA.Run(1, w)
	plainRes, plainLat := cpuB.RunTail(1, w, nil)
	hookRes, hookLat := cpuC.RunTail(1, w, func(int) float64 { return 0 })
	if !reflect.DeepEqual(want, plainRes) {
		t.Error("hook-free tail-run Result diverges from Run")
	}
	if !reflect.DeepEqual(plainRes, hookRes) {
		t.Error("zero-cost hook changes the tail-run Result")
	}
	if !reflect.DeepEqual(plainLat, hookLat) {
		t.Error("zero-cost hook changes the latency stream")
	}
}

// TestTranslateBatchZeroAllocs seals the walkers' batched translation seam
// the way TestStepZeroAllocs seals the per-access loop: once the
// WalkBatchBuf slots have grown to the scheme's steady-state footprint,
// walking a DefaultBatchSize chunk of trace VPNs through WalkBatch must not
// touch the heap for any scheme. Midgard translates after the caches, so
// its core never takes this seam.
func TestTranslateBatchZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short's reduced fixtures")
	}
	for _, scheme := range oskernel.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			cpu, sys, w := benchCPU(t, scheme, false, benchParams())
			if cpu.cfg.Midgard {
				t.Skipf("%s does not translate through the walker batch seam", scheme)
			}
			bw, ok := sys.Walker().(mmu.BatchWalker)
			if !ok {
				t.Fatalf("%s walker does not implement mmu.BatchWalker", scheme)
			}
			vpns := make([]addr.VPN, len(w.Accesses))
			for i, a := range w.Accesses {
				vpns[i] = addr.VPNOf(a.VA)
			}
			n := len(vpns)
			var bufs mmu.WalkBatchBuf
			i := 0
			chunk := func() {
				end := i + DefaultBatchSize
				if end > n {
					end = n
				}
				bw.WalkBatch(1, vpns[i:end], &bufs)
				i = end
				if i >= n {
					i = 0
				}
			}
			// Two warm passes: grow the slots and walker scratch, then
			// prove they stopped growing.
			for pass := 0; pass < 2; pass++ {
				for done := 0; done < n; done += DefaultBatchSize {
					chunk()
				}
			}
			allocs := testing.AllocsPerRun(n/DefaultBatchSize, chunk)
			if allocs != 0 {
				t.Errorf("%s: %.2f allocs per steady-state batch, want 0", scheme, allocs)
			}
		})
	}
}

// TestFastForwardZeroAllocs: the warmup stream must stay off the heap too —
// it exists to be cheap.
func TestFastForwardZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short's reduced fixtures")
	}
	for _, scheme := range oskernel.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			cpu, _, w := benchCPU(t, scheme, false, benchParams())
			cpu.FastForward(1, w, len(w.Accesses))
			cpu.FastForward(1, w, len(w.Accesses))
			allocs := testing.AllocsPerRun(3, func() {
				cpu.FastForward(1, w, len(w.Accesses))
			})
			if allocs != 0 {
				t.Errorf("%s: %.2f allocs per steady-state fast-forward pass, want 0", scheme, allocs)
			}
		})
	}
}

// BenchmarkFastForward prices one warmup access per scheme — the point of
// the functional mode is that this is well below the timing step's cost.
func BenchmarkFastForward(b *testing.B) {
	for _, scheme := range oskernel.AllSchemes() {
		b.Run(string(scheme), func(b *testing.B) {
			cpu, _, w := benchCPU(b, scheme, false, benchParams())
			n := len(w.Accesses)
			cpu.FastForward(1, w, n)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				done += cpu.FastForward(1, w, n)
			}
		})
	}
}
