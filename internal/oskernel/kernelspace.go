package oskernel

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/core"
	"lvm/internal/pte"
)

// Kernel address space support (paper §5.2 "Kernel Mappings"): the Linux
// kernel's address space is mapped into every process. LVM keeps ONE
// learned page table for it, shared across processes — saving the memory
// and training cost of duplicating it per process, exactly as the paper
// describes.
//
// The kernel half of the canonical address space starts at the sign-extended
// boundary; we model it with the canonical direct-map base.

// KernelASID is the reserved ASID under which the shared kernel index is
// attached (global mappings; hardware treats kernel entries as shared).
const KernelASID uint16 = 0

// KernelBaseVPN is the first kernel VPN (the direct map of a 48-bit
// kernel half, in 4 KB units).
const KernelBaseVPN addr.VPN = 0xffff8800_00000000 >> addr.PageShift & addr.MaxVPN

// KernelLayout describes the kernel mappings to install.
type KernelLayout struct {
	// DirectMapPages is the size of the linear direct map (usually all of
	// physical memory), mapped with 2 MB pages where aligned.
	DirectMapPages int
	// TextPages is the kernel text size (4 KB pages).
	TextPages int
}

// DefaultKernelLayout sizes the direct map to the physical memory.
func (s *System) DefaultKernelLayout() KernelLayout {
	return KernelLayout{
		DirectMapPages: int(s.Mem.TotalPages() / 64), // sampled direct map
		TextPages:      2048,
	}
}

// InstallKernel builds the shared kernel translation structure once. For
// LVM this is a single learned index reused by every process (§5.2); other
// schemes get a kernel table under the reserved ASID for parity.
func (s *System) InstallKernel(l KernelLayout) error {
	if s.kernelInstalled {
		return fmt.Errorf("oskernel: kernel already installed")
	}
	var ms []core.Mapping
	v := KernelBaseVPN
	// Kernel text: 4 KB pages.
	for i := 0; i < l.TextPages; i++ {
		ppn, err := s.Mem.Alloc(0)
		if err != nil {
			return err
		}
		ms = append(ms, core.Mapping{VPN: v, Entry: pte.New(ppn, addr.Page4K)})
		v++
	}
	// Direct map: 2 MB pages from the next huge boundary.
	v = addr.AlignDown(v+511, addr.Page2M)
	for mapped := 0; mapped < l.DirectMapPages; mapped += 512 {
		ppn, err := s.Mem.Alloc(9)
		if err != nil {
			return err
		}
		ms = append(ms, core.Mapping{VPN: v, Entry: pte.New(ppn, addr.Page2M)})
		v += 512
	}

	switch s.Scheme {
	case SchemeLVM:
		ix, err := core.Build(s.Mem, ms, core.DefaultParams())
		if err != nil {
			return err
		}
		s.kernelIx = ix
		// One index, one attachment: every process's kernel accesses
		// resolve through the same structure under the global ASID.
		s.LVMWalker().Attach(KernelASID, ix)
	case SchemeRadix, SchemeMidgard:
		if _, err := schemes[s.Scheme].attach(s, &Process{ASID: KernelASID}, ms); err != nil {
			return err
		}
	default:
		return fmt.Errorf("oskernel: kernel space modeled for radix and lvm schemes only")
	}
	s.kernelInstalled = true
	s.kernelMappings = len(ms)
	return nil
}

// KernelIndex returns the shared kernel learned index (LVM scheme).
func (s *System) KernelIndex() *core.Index { return s.kernelIx }

// KernelMappings returns the number of kernel translations installed.
func (s *System) KernelMappings() int { return s.kernelMappings }

// KernelIndexBytes returns the size of the shared kernel index — the
// memory a per-process design would pay once per process, and LVM pays
// once per machine (§5.2).
func (s *System) KernelIndexBytes() int {
	if s.kernelIx == nil {
		return 0
	}
	return s.kernelIx.SizeBytes()
}

// IsKernelVPN reports whether a VPN belongs to the kernel half.
func IsKernelVPN(v addr.VPN) bool { return v >= KernelBaseVPN }
