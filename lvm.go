// Package lvm is a Go reproduction of "Learning to Walk: Architecting
// Learned Virtual Memory Translation" (MICRO 2025): a page table structure
// built on a learned index that locates page table entries with a single
// memory access in the common case.
//
// The package exposes three layers:
//
//   - The learned page table itself (BuildIndex / Index): a hierarchy of
//     Q44.20 fixed-point linear models over gapped page tables, with the
//     paper's cost model, insertion paths, and multi-page-size support.
//   - The operating-system layer (NewSystem / System): per-process address
//     spaces, physical memory with a buddy allocator, THP policy, and every
//     baseline page-table scheme the paper compares against (radix, elastic
//     cuckoo, ideal, FPT, ASAP, Midgard).
//   - The evaluation stack (Simulate, NewExperiments(cfg).Execute): the
//     trace-driven timing simulator and the harness that regenerates every
//     table and figure of the paper's evaluation, running every simulation
//     and bespoke measurement on one worker pool before it renders.
//
// Quick start:
//
//	mem := lvm.NewPhysicalMemory(256 << 20)
//	ix, err := lvm.BuildIndex(mem, mappings, lvm.DefaultParams())
//	r := ix.Walk(vpn) // hardware-equivalent translation
package lvm

import (
	"lvm/internal/addr"
	"lvm/internal/core"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// Address-space types.
type (
	// VA is a virtual address.
	VA = addr.VA
	// PA is a physical address.
	PA = addr.PA
	// VPN is a virtual page number in 4 KB units.
	VPN = addr.VPN
	// PPN is a physical page number in 4 KB units.
	PPN = addr.PPN
	// PageSize selects a translation granularity.
	PageSize = addr.PageSize
	// Entry is an 8-byte page table entry.
	Entry = pte.Entry
)

// Page sizes.
const (
	Page4K = addr.Page4K
	Page2M = addr.Page2M
	Page1G = addr.Page1G
)

// NewEntry builds a present page table entry.
func NewEntry(ppn PPN, size PageSize) Entry { return pte.New(ppn, size) }

// Core learned-index types.
type (
	// Index is a per-process LVM learned index (paper §4).
	Index = core.Index
	// Mapping is one translation handed to the index.
	Mapping = core.Mapping
	// Params are LVM's tunable parameters (paper §5.1).
	Params = core.Params
	// WalkResult is the trace of one hardware walk.
	WalkResult = core.WalkResult
	// IndexStats are the maintenance statistics of §7.3.
	IndexStats = core.IndexStats
	// HWWalker is LVM's hardware page walker with its walk cache.
	HWWalker = core.HWWalker
)

// PhysicalMemory is simulated physical memory with a buddy allocator.
type PhysicalMemory = phys.Memory

// DefaultParams returns the paper's §5.1 configuration: cost weights
// x1=10, x2=5, x3=200, d_limit=3, ga_scale=1.3, 64 MB minimum insertion
// distance, C_err=3.
func DefaultParams() Params { return core.DefaultParams() }

// NewPhysicalMemory creates a simulated physical memory of the given size.
func NewPhysicalMemory(bytes uint64) *PhysicalMemory { return phys.New(bytes) }

// BuildIndex trains a learned page table over the mappings, allocating its
// gapped page tables and node arrays from mem (paper §4.3.1-§4.3.3).
func BuildIndex(mem *PhysicalMemory, mappings []Mapping, p Params) (*Index, error) {
	return core.Build(mem, mappings, p)
}

// NewHardwareWalker creates LVM's MMU-side walker with an LWC of the given
// size (Table 1: 16 entries).
func NewHardwareWalker(lwcEntries int) *HWWalker { return core.NewHWWalker(lwcEntries) }

// VPNOf returns the base-page VPN containing a virtual address.
func VPNOf(va VA) VPN { return addr.VPNOf(va) }

// VAOf returns the first virtual address of a VPN.
func VAOf(v VPN) VA { return addr.VAOf(v) }
