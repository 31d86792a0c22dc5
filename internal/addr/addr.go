// Package addr defines virtual and physical address types, page sizes, and
// the VPN arithmetic shared by every page-table scheme in the repository.
//
// The conventions follow x86-64 with 48-bit canonical virtual addresses and
// a 4 KB base page. Virtual page numbers (VPNs) are always expressed in
// units of the 4 KB base page, even for huge pages: a 2 MB page is
// identified by the VPN of its first 4 KB sub-page (paper §4.4).
package addr

import "fmt"

// Address-space geometry (x86-64).
const (
	// VABits is the number of meaningful virtual address bits.
	VABits = 48
	// PageShift is log2 of the base page size (4 KB).
	PageShift = 12
	// PageSize4K is the base page size.
	PageSize4K = 1 << PageShift
	// PageSize2M is the transparent-huge-page size.
	PageSize2M = 1 << 21
	// PageSize1G is the 1 GB page size.
	PageSize1G = 1 << 30
	// VPNsPer2M is the number of base-page VPNs covered by a 2 MB page.
	VPNsPer2M = PageSize2M / PageSize4K
	// VPNsPer1G is the number of base-page VPNs covered by a 1 GB page.
	VPNsPer1G = PageSize1G / PageSize4K
	// MaxVPN is the largest base-page VPN in a 48-bit address space.
	MaxVPN = (1 << (VABits - PageShift)) - 1
)

// VA is a virtual address.
type VA uint64

// PA is a physical address.
type PA uint64

// VPN is a virtual page number in units of the 4 KB base page.
type VPN uint64

// PPN is a physical page number in units of the 4 KB base page.
type PPN uint64

// PageSize identifies one of the supported translation granularities.
// LVM supports arbitrarily many page sizes (§4.4); this enum mirrors the
// three x86-64 sizes encoded by the PTE's two size bits.
type PageSize uint8

const (
	// Page4K is a 4 KB base page.
	Page4K PageSize = iota
	// Page2M is a 2 MB huge page.
	Page2M
	// Page1G is a 1 GB huge page.
	Page1G
)

// Bytes returns the size of the page in bytes.
func (s PageSize) Bytes() uint64 {
	switch s {
	case Page4K:
		return PageSize4K
	case Page2M:
		return PageSize2M
	case Page1G:
		return PageSize1G
	}
	//lint:allow hotalloc panic guard, unreachable for the three valid sizes
	panic(fmt.Sprintf("addr: invalid page size %d", s))
}

// BaseVPNs returns the number of 4 KB VPNs the page spans.
func (s PageSize) BaseVPNs() uint64 { return s.Bytes() >> PageShift }

// String implements fmt.Stringer.
func (s PageSize) String() string {
	switch s {
	case Page4K:
		return "4KB"
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	}
	return fmt.Sprintf("PageSize(%d)", uint8(s))
}

// VPNOf returns the base-page VPN containing the virtual address.
func VPNOf(va VA) VPN { return VPN(va >> PageShift) }

// VAOf returns the first virtual address of the VPN.
func VAOf(v VPN) VA { return VA(v << PageShift) }

// PAOf returns the first physical address of the PPN — the page base every
// table scheme uses to locate its structures in physical memory.
func PAOf(p PPN) PA { return PA(p << PageShift) }

// SlotPA returns the physical address of the index'th slot of slotBytes
// bytes in a table based at page p. Every scheme's slot/entry addressing is
// this one shape; keeping it here means the PPN→PA step happens in exactly
// one audited place.
func SlotPA(p PPN, index, slotBytes uint64) PA {
	return PAOf(p) + PA(index*slotBytes)
}

// Offset returns the in-page offset of va for the given page size.
func Offset(va VA, s PageSize) uint64 { return uint64(va) & (s.Bytes() - 1) }

// AlignDown rounds the VPN down to the page-size boundary; this is the
// "round down to the first 4 KB sub-page" step used for huge-page lookups
// (paper §4.4).
func AlignDown(v VPN, s PageSize) VPN {
	mask := VPN(s.BaseVPNs() - 1)
	return v &^ mask
}

// Aligned reports whether the VPN sits on the page-size boundary.
func Aligned(v VPN, s PageSize) bool { return v == AlignDown(v, s) }

// Translate combines a PPN with the in-page offset of va to produce the
// final physical address.
func Translate(va VA, ppn PPN, s PageSize) PA {
	return PAOf(ppn) + PA(Offset(va, s))
}

// Radix-level index extraction for 4-level x86-64 page tables. Level 4 is
// the root (PGD), level 1 indexes the leaf (PTE) table. Each level consumes
// 9 bits of the VPN.
const (
	// RadixLevels is the number of levels in an x86-64 radix page table.
	RadixLevels = 4
	// RadixBitsPerLevel is the number of VPN bits consumed per level.
	RadixBitsPerLevel = 9
	// RadixFanout is the number of entries per radix table.
	RadixFanout = 1 << RadixBitsPerLevel
)

// RadixIndex returns the table index used at the given radix level
// (4 = PGD/root ... 1 = PTE/leaf).
func RadixIndex(v VPN, level int) int {
	if level < 1 || level > RadixLevels {
		//lint:allow hotalloc panic guard, unreachable for in-range levels
		panic(fmt.Sprintf("addr: invalid radix level %d", level))
	}
	shift := uint((level - 1) * RadixBitsPerLevel)
	return int((uint64(v) >> shift) & (RadixFanout - 1))
}
