package phys

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"testing"

	"lvm/internal/addr"
)

// checkBuddy fails t unless m satisfies the buddy allocator's invariants:
// FreePages equals the pages of the free blocks, the free blocks and the
// live allocOrder blocks are disjoint and cover memory, and no free block
// has a free buddy of the same order (free buddies always coalesce).
func checkBuddy(t testing.TB, m *Memory) {
	t.Helper()
	owner := make([]int8, m.totalPages) // 0 unclaimed, 1 free, 2 allocated
	claim := func(base uint64, order int, by int8) {
		t.Helper()
		if base+blockPages(order) > m.totalPages {
			t.Fatalf("order-%d block at %#x runs past the %d pages of memory", order, base, m.totalPages)
		}
		for p := base; p < base+blockPages(order); p++ {
			if owner[p] != 0 {
				t.Fatalf("page %#x of the order-%d block at %#x is already in a %s block",
					p, order, base, map[int8]string{1: "free", 2: "live"}[owner[p]])
			}
			owner[p] = by
		}
	}
	var free uint64
	for o, f := range m.freeLists {
		n := 0
		for w, word := range f.words {
			for ; word != 0; word &= word - 1 {
				base := (uint64(w)*64 + uint64(bits.TrailingZeros64(word))) << f.shift
				n++
				claim(base, o, 1)
				if o < MaxOrder && f.contains(base^blockPages(o)) {
					t.Fatalf("free order-%d block at %#x has a free buddy at %#x", o, base, base^blockPages(o))
				}
			}
		}
		if n != f.len() {
			t.Fatalf("order-%d free list holds %d blocks but counts %d", o, n, f.len())
		}
		free += uint64(n) * blockPages(o)
	}
	if free != m.FreePages() {
		t.Fatalf("FreePages() = %d, free blocks hold %d pages", m.FreePages(), free)
	}
	for pfn, ord := range m.allocOrder {
		if ord != 0 {
			claim(uint64(pfn), int(ord)-1, 2)
		}
	}
	for p, o := range owner {
		if o == 0 {
			t.Fatalf("page %#x is neither free nor allocated", p)
		}
	}
}

// memoryDigest is FNV-64a over the allocator's whole state: every page's
// allocOrder, every free-list word, the free page count and the contiguity
// cap.
func memoryDigest(m *Memory) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, o := range m.allocOrder {
		h.Write([]byte{byte(o)})
	}
	for _, f := range m.freeLists {
		for _, w := range f.words {
			put(w)
		}
	}
	put(m.freePages)
	put(uint64(int64(m.contiguityCap)))
	return h.Sum64()
}

// TestFragmentGolden pins the aged machines §7.3's fragmentation study
// builds: DatacenterFragmentation with a 256 KB contiguity cap, and aging
// to FMFI 0.8 and 0.9 at 2 MB, for two seeds at 64 MiB and 1 GiB.
func TestFragmentGolden(t *testing.T) {
	want := map[string]uint64{
		"64MiB/1/datacenter": 0x7ed3b7f9d8be8763,
		"64MiB/1/fmfi0.8":    0x9bde1b5abcdfed42,
		"64MiB/1/fmfi0.9":    0x9bde1b5abcdfed42,
		"64MiB/2/datacenter": 0x6000ffb5c2a93d93,
		"64MiB/2/fmfi0.8":    0x643bc037924476dc,
		"64MiB/2/fmfi0.9":    0x643bc037924476dc,
		"1GiB/1/datacenter":  0xde01fe6e69672250,
		"1GiB/1/fmfi0.8":     0x29b8fdfda2d9045b,
		"1GiB/1/fmfi0.9":     0x29b8fdfda2d9045b,
		"1GiB/2/datacenter":  0xae45855414bdfeaf,
		"1GiB/2/fmfi0.8":     0x37a13cb01ab31e84,
		"1GiB/2/fmfi0.9":     0x37a13cb01ab31e84,
	}
	ages := []struct {
		name string
		age  func(m *Memory, seed int64)
	}{
		{"datacenter", func(m *Memory, seed int64) {
			m.Fragment(seed, DatacenterFragmentation)
			m.SetContiguityCap(6)
		}},
		{"fmfi0.8", func(m *Memory, seed int64) { m.FragmentToFMFI(seed, 9, 0.8) }},
		{"fmfi0.9", func(m *Memory, seed int64) { m.FragmentToFMFI(seed, 9, 0.9) }},
	}
	for _, size := range []struct {
		name  string
		bytes uint64
	}{{"64MiB", 64 << 20}, {"1GiB", 1 << 30}} {
		for _, seed := range []int64{1, 2} {
			for _, a := range ages {
				key := fmt.Sprintf("%s/%d/%s", size.name, seed, a.name)
				m := New(size.bytes)
				a.age(m, seed)
				checkBuddy(t, m)
				if got := memoryDigest(m); got != want[key] {
					t.Errorf("%q: %#x, want %#x", key, got, want[key])
				}
			}
		}
	}
}

// FuzzBuddy drives a small memory through a sequence of Alloc, AllocExact,
// Free and Fragment operations decoded from the input, checking the buddy
// invariants after every one.
func FuzzBuddy(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 5, 2, 0, 1, 7, 9})
	f.Add([]byte{200, 3, 4, 0, 2, 0, 0, 1, 0, 2, 1, 0, 6, 2, 0})
	f.Add([]byte{17, 1, 40, 2, 0, 3, 1, 1, 3, 0, 4, 0, 2, 2, 1, 3, 5, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// 512 to 2552 pages: most sizes are not a power of two, so the
		// last blocks' buddies lie past the end of memory.
		m := New((512 + 8*uint64(data[0])) << addr.PageShift)
		type block struct {
			base  addr.PPN
			order int
		}
		var live []block
		next := func(i *int) int {
			*i++
			if *i < len(data) {
				return int(data[*i])
			}
			return 0
		}
		for i := 1; i < len(data); i++ {
			switch op := data[i] % 4; op {
			case 0:
				order := next(&i) % 8
				if base, err := m.Alloc(order); err == nil {
					live = append(live, block{base, order})
				}
			case 1:
				order := next(&i) % 8
				base := addr.PPN(uint64(next(&i)) << uint(order) % m.totalPages)
				if m.AllocExact(base, order) == nil {
					live = append(live, block{base, order})
				}
			case 2:
				if len(live) > 0 {
					k := next(&i) % len(live)
					m.Free(live[k].base, live[k].order)
					live = append(live[:k], live[k+1:]...)
				}
			case 3:
				cfg := FragmentConfig{
					TargetFreeFraction: float64(1+next(&i)%3) / 4,
					MeanRunPages:       1 + next(&i)%16,
					MaxRunPages:        next(&i) % 64,
				}
				// Fragment frees only pages it can find allocated at
				// order 0; with less than the target free it would never
				// reach it.
				if m.FreePages() < uint64(float64(m.totalPages)*cfg.TargetFreeFraction) {
					continue
				}
				m.Fragment(int64(next(&i)), cfg)
				// Fragment allocated and freed order-0 pages, ours among
				// them: the live set is what allocOrder now records.
				live = live[:0]
				for pfn, ord := range m.allocOrder {
					if ord != 0 {
						live = append(live, block{addr.PPN(pfn), int(ord) - 1})
					}
				}
			}
			checkBuddy(t, m)
		}
	})
}

// BenchmarkFragmentToFMFI times aging a fresh 1 GiB memory to FMFI 0.9 at
// 2 MB, the aging §7.3's fragmentation study performs per machine; its B/op
// shows what the aging allocates besides the memory itself.
func BenchmarkFragmentToFMFI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := New(1 << 30)
		b.StartTimer()
		m.FragmentToFMFI(1, 9, 0.9)
	}
}
