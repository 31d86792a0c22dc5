package ecpt

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// layoutDigest folds every way's slots in order, each cuckoo's occupancy and
// the table's resize count into one FNV-1a value.
func layoutDigest(t *Table) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(t.Rehashes())
	for _, s := range [...]addr.PageSize{addr.Page4K, addr.Page2M} {
		c := t.tables[s]
		put(uint64(c.used))
		for _, w := range c.ways {
			put(uint64(len(w.slots)))
			for _, slot := range w.slots {
				put(uint64(slot.Tag))
				put(uint64(slot.Entry))
			}
		}
	}
	return h.Sum64()
}

// TestCuckooLayoutGolden pins where every translation lands. The hash, the
// way order, first-empty-wins placement and the random eviction draws all
// decide the layout, and the layout decides every simulated ECPT probe
// address, so any change to them must show up here. From the default table
// size, 90 000 random 4K pages force three resizes of the 4K table and
// 24 000 2M pages one of the 2M table, with displacement kicks on the way
// to each; every seventh 4K map overwrites an earlier page.
func TestCuckooLayoutGolden(t *testing.T) {
	const golden uint64 = 0x6fd4e157c58c1250
	tb, err := New(phys.New(256<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var mapped4K []addr.VPN
	for i, n2M := 0, 0; i < 90000; i++ {
		v := addr.VPN(rng.Uint64() & (1<<36 - 1))
		if err := tb.Map(v, pte.New(addr.PPN(i+1), addr.Page4K)); err != nil {
			t.Fatalf("map 4K %#x: %v", v, err)
		}
		mapped4K = append(mapped4K, v)
		if i%7 == 6 {
			old := mapped4K[rng.Intn(len(mapped4K))]
			if err := tb.Map(old, pte.New(addr.PPN(90000+i), addr.Page4K)); err != nil {
				t.Fatalf("remap 4K %#x: %v", old, err)
			}
		}
		if n2M < 24000 && i%4 != 3 {
			v := addr.VPN(rng.Uint64()&(1<<27-1)) << 9
			if err := tb.Map(v, pte.New(addr.PPN(n2M+1)<<9, addr.Page2M)); err != nil {
				t.Fatalf("map 2M %#x: %v", v, err)
			}
			n2M++
		}
	}
	if got := tb.Rehashes(); got < 4 {
		t.Fatalf("fixture forced %d resizes, want at least 4", got)
	}
	if got := layoutDigest(tb); got != golden {
		t.Errorf("layout digest %#x, want %#x", got, golden)
	}
}

// BenchmarkTableMap builds a fresh table at the default size and maps N 4K
// pages into it, through the two elastic resizes that takes.
func BenchmarkTableMap(b *testing.B) {
	const pages = 1 << 15
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := New(phys.New(64<<20), 0)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for p := 0; p < pages; p++ {
			v := addr.VPN(rng.Uint64() & (1<<36 - 1))
			if err := tb.Map(v, pte.New(addr.PPN(p+1), addr.Page4K)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
