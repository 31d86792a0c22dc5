package oskernel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
)

// TestFrameRecordLifecycle drives a process's frame record through every
// kind of change, for every scheme × 4K/THP: launch guardSpace, grow two 4
// KB pages and a 2 MB page, unmap the grown 2 MB page's interior, chunk 0's
// interior (a launched 2 MB page under THP, a launched 4 KB page without),
// a launched and a grown 4 KB page, remap both holes at their old sizes,
// under THP also remap chunk 3's launched 2 MB page as one 4 KB page, then
// Kill.
// A second process launched first grows a 4 KB page after each of those
// maps, so the two processes' frames interleave. Kill must give back exactly
// the killed process's pages, and a relaunch must get the PPNs it got when
// the frame record was a VPN → frame map: a frame freed twice, missed or
// freed at the wrong order moves the allocator's later choices.
func TestFrameRecordLifecycle(t *testing.T) {
	// FNV-64a over the relaunch's (VPN, entry) pairs, recorded with the
	// map-based frame record.
	want := map[string]uint64{
		"radix/thp=false":     0x9d749637f23c3cb,
		"radix/thp=true":      0x9b9366bbae807c23,
		"ecpt/thp=false":      0xe730c4ac94babf36,
		"ecpt/thp=true":       0xbcab16e1c783c58,
		"lvm/thp=false":       0xa6a9ee25ef9cce84,
		"lvm/thp=true":        0xa8e08e9ce561dd95,
		"ideal/thp=false":     0xf7ab1b5e6961e699,
		"ideal/thp=true":      0x99e1663c1184e9e0,
		"fpt/thp=false":       0x4d500cb82115ef2c,
		"fpt/thp=true":        0xe143c713c643d6f2,
		"asap/thp=false":      0x54cae2ed4b846a05,
		"asap/thp=true":       0xd2a915864ee2feaa,
		"midgard/thp=false":   0x9d749637f23c3cb,
		"midgard/thp=true":    0x9b9366bbae807c23,
		"victima/thp=false":   0xe4dcfc2945f3e7b,
		"victima/thp=true":    0x10d985a37e39749f,
		"revelator/thp=false": 0x5a730480019ad084,
		"revelator/thp=true":  0x7ea60321e25ed9f8,
	}
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			name := fmt.Sprintf("%s/thp=%t", scheme, thp)
			t.Run(name, func(t *testing.T) {
				mem := phys.New(2 << 30)
				before := mem.FreePages()
				sys := NewSystem(mem, scheme)
				if _, err := sys.Launch(2, guardSpace(), thp); err != nil {
					t.Fatal(err)
				}
				preLaunch := mem.FreePages()
				if _, err := sys.Launch(1, guardSpace(), thp); err != nil {
					t.Fatal(err)
				}
				survivor, survivorTook := guardGrow+100, uint64(0)
				mustMap := func(v addr.VPN, size addr.PageSize) {
					t.Helper()
					if err := sys.MapPage(1, v, size); err != nil {
						t.Fatalf("map %#x %s: %v", uint64(v), size, err)
					}
					free := mem.FreePages()
					if err := sys.MapPage(2, survivor, addr.Page4K); err != nil {
						t.Fatalf("survivor map %#x: %v", uint64(survivor), err)
					}
					survivor++
					survivorTook += free - mem.FreePages()
				}
				mustUnmap := func(v addr.VPN) {
					t.Helper()
					if !sys.UnmapPage(1, v) {
						t.Fatalf("unmap %#x: not mapped", uint64(v))
					}
				}
				mustMap(guardGrow, addr.Page4K)
				mustMap(guardGrow+1, addr.Page4K)
				mustMap(guardHuge, addr.Page2M)
				if err := sys.MapPage(1, guardHuge, addr.Page4K); err == nil {
					t.Fatal("a 4 KB map over the grown 2 MB page succeeded")
				}
				mustUnmap(guardHuge + 17)
				mustUnmap(guardBase + 33)
				mustUnmap(guardBase + 1030)
				mustUnmap(guardGrow + 1)
				if sys.UnmapPage(1, guardHuge+18) {
					t.Fatal("the unmapped 2 MB page unmapped twice")
				}
				mustMap(guardHuge, addr.Page2M)
				if thp {
					mustMap(guardBase, addr.Page2M)
					// Chunk 3's launched 2 MB page comes back as one 4 KB
					// page at its base: the rest of the chunk stays unmapped.
					mustUnmap(guardBase + 1536 + 7)
					mustMap(guardBase+1536, addr.Page4K)
					if _, ok := sys.SoftwareLookup(1, guardBase+1536+7); ok {
						t.Fatal("a 4 KB page at a former 2 MB page's base covers its interior")
					}
				} else {
					mustMap(guardBase+33, addr.Page4K)
				}
				p1 := sys.Process(1)
				cleared := 0
				for _, m := range p1.launched {
					if !m.Entry.Present() {
						cleared++
					}
				}
				if cleared != p1.unmapped {
					t.Fatalf("%d launched entries are unmapped, the count says %d", cleared, p1.unmapped)
				}
				if err := sys.Kill(1); err != nil {
					t.Fatal(err)
				}
				if got, want := mem.FreePages(), preLaunch-survivorTook; got != want {
					t.Fatalf("kill left %d pages allocated", int64(want)-int64(got))
				}
				p, err := sys.Launch(1, guardSpace(), thp)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				var b [8]byte
				for _, m := range p.launched {
					binary.LittleEndian.PutUint64(b[:], uint64(m.VPN))
					h.Write(b[:])
					binary.LittleEndian.PutUint64(b[:], uint64(m.Entry))
					h.Write(b[:])
				}
				if got := h.Sum64(); got != want[name] {
					t.Errorf("relaunch digest %#x, want %#x", got, want[name])
				}
				for _, asid := range []uint16{1, 2} {
					if err := sys.Kill(asid); err != nil {
						t.Fatal(err)
					}
				}
				if got := mem.FreePages(); got != before {
					t.Fatalf("kills left %d pages allocated", before-got)
				}
			})
		}
	}
}
