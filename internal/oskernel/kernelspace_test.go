package oskernel

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/core"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/vas"
)

func TestKernelSharedIndex(t *testing.T) {
	mem := phys.New(512 << 20)
	sys := NewSystem(mem, SchemeLVM)
	if err := sys.InstallKernel(sys.DefaultKernelLayout()); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallKernel(sys.DefaultKernelLayout()); err == nil {
		t.Fatal("double install must fail")
	}
	// Launch two processes; the kernel index must not be duplicated.
	for asid := uint16(1); asid <= 2; asid++ {
		if _, err := sys.Launch(asid, smallSpace(int64(asid)), false); err != nil {
			t.Fatal(err)
		}
	}
	if sys.KernelIndexBytes() == 0 {
		t.Fatal("no kernel index")
	}
	// Kernel translations resolve under the global ASID regardless of
	// which process is running.
	w := sys.Walker()
	text := KernelBaseVPN
	out := w.Walk(KernelASID, text)
	if !out.Found {
		t.Fatal("kernel text not translated")
	}
	// Direct-map huge pages resolve too (interior VPN).
	direct := addr.AlignDown(KernelBaseVPN+addr.VPN(2048)+511, addr.Page2M)
	if out := w.Walk(KernelASID, direct+300); !out.Found || out.Entry.Size() != addr.Page2M {
		t.Fatalf("kernel direct map walk failed (found=%t)", out.Found)
	}
	// User translations still isolated per process.
	p1 := sys.Process(1)
	heap := heapOf(p1.Space)
	if out := w.Walk(1, heap.Mapped[0]); !out.Found {
		t.Fatal("user mapping lost after kernel install")
	}
}

func TestKernelSharedAcrossSchemeRadix(t *testing.T) {
	mem := phys.New(512 << 20)
	sys := NewSystem(mem, SchemeRadix)
	if err := sys.InstallKernel(sys.DefaultKernelLayout()); err != nil {
		t.Fatal(err)
	}
	if out := sys.Walker().Walk(KernelASID, KernelBaseVPN); !out.Found {
		t.Fatal("radix kernel walk failed")
	}
}

func TestKernelUnsupportedScheme(t *testing.T) {
	mem := phys.New(256 << 20)
	sys := NewSystem(mem, SchemeECPT)
	if err := sys.InstallKernel(sys.DefaultKernelLayout()); err == nil {
		t.Fatal("expected unsupported-scheme error")
	}
}

func TestIsKernelVPN(t *testing.T) {
	if IsKernelVPN(0x1000) {
		t.Error("user VPN classified as kernel")
	}
	if !IsKernelVPN(KernelBaseVPN + 5) {
		t.Error("kernel VPN not recognized")
	}
}

// coreMapping1G builds a 1 GB mapping for tests.
func coreMapping1G(base addr.VPN) core.Mapping {
	return core.Mapping{VPN: base, Entry: pte.New(0x40000, addr.Page1G)}
}

// TestOneGigabytePages exercises 1 GB translations end to end through the
// LVM scheme — the paper's §4.4 claim is that ANY page size fits the same
// index through its slope encoding.
func TestOneGigabytePages(t *testing.T) {
	mem := phys.New(512 << 20)
	sys := NewSystem(mem, SchemeLVM)
	cfg := vas.DefaultConfig()
	cfg.HeapPages = 2048
	cfg.MmapRegions = 1
	cfg.MmapPages = 512
	space := vas.Generate(cfg, 3)
	p, err := sys.Launch(1, space, false)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a 1 GB translation manually (aligned VPN, synthetic PPN).
	base := addr.AlignDown(addr.VPN(0x40000000>>addr.PageShift)+addr.VPN(addr.VPNsPer1G), addr.Page1G)
	ix := p.LVMIndex()
	if err := ix.Insert(coreMapping1G(base)); err != nil {
		t.Fatalf("1GB insert: %v", err)
	}
	for _, off := range []addr.VPN{0, 12345, addr.VPNsPer1G - 1} {
		r := ix.Walk(base + off)
		if !r.Found || r.Entry.Size() != addr.Page1G {
			t.Fatalf("1GB interior walk failed at +%d (found=%t size=%s)", off, r.Found, r.Entry.Size())
		}
	}
}
