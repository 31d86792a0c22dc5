package lvm_test

import (
	"testing"

	"lvm"
)

// Public-API smoke tests: the facade must be usable exactly as the README
// shows.

func TestQuickstartFlow(t *testing.T) {
	mem := lvm.NewPhysicalMemory(64 << 20)
	var ms []lvm.Mapping
	for i := 0; i < 1000; i++ {
		ms = append(ms, lvm.Mapping{
			VPN:   lvm.VPN(0x1000 + i),
			Entry: lvm.NewEntry(lvm.PPN(0x2000+i), lvm.Page4K),
		})
	}
	ix, err := lvm.BuildIndex(mem, ms, lvm.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := ix.Walk(0x1234)
	if !r.Found || r.Entry.PPN() != lvm.PPN(0x2000+0x234) {
		t.Fatalf("walk failed: %+v", r)
	}
	if r.PTEAccesses != 1 {
		t.Errorf("not single-access: %d", r.PTEAccesses)
	}
	if ix.SizeBytes() > 256 {
		t.Errorf("index size %dB", ix.SizeBytes())
	}
	// Insert + free through the public surface.
	if err := ix.Insert(lvm.Mapping{VPN: 0x1000 + 1000, Entry: lvm.NewEntry(9, lvm.Page4K)}); err != nil {
		t.Fatal(err)
	}
	if !ix.Free(0x1000) {
		t.Error("free failed")
	}
}

func TestSystemFlow(t *testing.T) {
	cfg := lvm.DefaultLayout()
	cfg.HeapPages = 2048
	cfg.MmapRegions = 1
	cfg.MmapPages = 512
	space := lvm.GenerateAddressSpace(cfg, 7)
	mem := lvm.NewPhysicalMemory(128 << 20)
	sys := lvm.NewSystem(mem, lvm.SchemeLVM)
	p, err := sys.Launch(1, space, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.LVMIndex() == nil {
		t.Fatal("no index")
	}
	w := sys.Walker()
	for _, r := range space.Regions {
		for i := 0; i < len(r.Mapped); i += 113 {
			if out := w.Walk(1, r.Mapped[i]); !out.Found {
				t.Fatalf("VPN %#x not translated", uint64(r.Mapped[i]))
			}
		}
	}
}

func TestSimulateFlow(t *testing.T) {
	wp := lvm.QuickWorkloadParams()
	res, err := lvm.Simulate("bfs", lvm.SchemeLVM, false, wp, lvm.ScaledMachine())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Faults != 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestGapCoverageExposed(t *testing.T) {
	if got := lvm.GapCoverage([]lvm.VPN{1, 2, 3}); got != 1 {
		t.Errorf("coverage = %v", got)
	}
}

func TestWorkloadNames(t *testing.T) {
	if len(lvm.WorkloadNames()) != 9 {
		t.Errorf("want the nine Figure-9 workloads, got %v", lvm.WorkloadNames())
	}
}

// The experiment harness is driven through its one entry point: select
// by key, plan and execute, and repeated calls reuse what ran.
func TestExperimentsExecute(t *testing.T) {
	e := lvm.NewExperiments(lvm.QuickExperiments())
	for range 2 {
		res, err := e.Execute(lvm.ExperimentOptions{Workers: 1}, "hardware")
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Key != "hardware" || res[0].Render() == "" {
			t.Fatalf("Execute(hardware) = %+v", res)
		}
	}
	if _, err := e.Execute(lvm.ExperimentOptions{}, "nope"); err == nil {
		t.Error("unknown experiment key accepted")
	}
}
