package vas

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"lvm/internal/addr"
)

func smallCfg() LayoutConfig {
	cfg := DefaultConfig()
	cfg.HeapPages = 8192
	cfg.MmapPages = 2048
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallCfg(), 7)
	b := Generate(smallCfg(), 7)
	av, bv := a.MappedVPNs(), b.MappedVPNs()
	if len(av) != len(bv) {
		t.Fatalf("lengths differ: %d vs %d", len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("same seed produced different layouts")
		}
	}
	c := Generate(smallCfg(), 8)
	if len(c.MappedVPNs()) == len(av) && c.MappedVPNs()[0] == av[0] {
		t.Log("different seeds may coincide in size; checking base differs")
	}
}

func TestRegionsDisjoint(t *testing.T) {
	s := Generate(smallCfg(), 3)
	type iv struct{ lo, hi addr.VPN }
	var ivs []iv
	for _, r := range s.Regions {
		ivs = append(ivs, iv{r.Base, r.Base + addr.VPN(r.Span) - 1})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	for i := 1; i < len(ivs); i++ {
		if ivs[i].lo <= ivs[i-1].hi {
			t.Fatalf("regions overlap: [%#x,%#x] and [%#x,%#x]",
				uint64(ivs[i-1].lo), uint64(ivs[i-1].hi), uint64(ivs[i].lo), uint64(ivs[i].hi))
		}
	}
}

func TestMappedWithinRegions(t *testing.T) {
	s := Generate(smallCfg(), 11)
	for _, r := range s.Regions {
		for _, v := range r.Mapped {
			if v < r.Base || v >= r.Base+addr.VPN(r.Span) {
				t.Fatalf("%s region: VPN %#x outside [base, base+span)", r.Kind, uint64(v))
			}
		}
		for i := 1; i < len(r.Mapped); i++ {
			if r.Mapped[i] <= r.Mapped[i-1] {
				t.Fatalf("%s region mapped VPNs not strictly ascending", r.Kind)
			}
		}
	}
}

func TestGapCoverageRegular(t *testing.T) {
	// §3.1: all evaluated configurations show ≥78% gap-1 coverage; our
	// default server profile should be well above that.
	s := Generate(DefaultConfig(), 1)
	got := GapCoverage(s.MappedVPNs())
	if got < 0.85 {
		t.Errorf("gap coverage = %.3f, want ≥ 0.85 for the default profile", got)
	}
}

func TestGapCoverageAllocatorsSimilar(t *testing.T) {
	je := smallCfg()
	je.Allocator = Jemalloc
	tc := smallCfg()
	tc.Allocator = Tcmalloc
	a := GapCoverage(Generate(je, 5).MappedVPNs())
	b := GapCoverage(Generate(tc, 5).MappedVPNs())
	if diff := a - b; diff > 0.1 || diff < -0.1 {
		t.Errorf("allocator choice changed regularity too much: %.3f vs %.3f", a, b)
	}
}

func TestGapCoverageEdgeCases(t *testing.T) {
	if GapCoverage(nil) != 1 || GapCoverage([]addr.VPN{5}) != 1 {
		t.Error("degenerate inputs must report full coverage")
	}
	if got := GapCoverage([]addr.VPN{1, 2, 3, 10}); got != 2.0/3 {
		t.Errorf("coverage = %v want 2/3", got)
	}
}

func TestTranslations4K(t *testing.T) {
	s := Generate(smallCfg(), 2)
	trs := s.Translations(false)
	if len(trs) != s.TotalMapped() {
		t.Errorf("4K translations = %d, mapped = %d", len(trs), s.TotalMapped())
	}
	for _, tr := range trs {
		if tr.Size != addr.Page4K {
			t.Fatal("non-4K translation without THP")
		}
	}
}

func TestTranslationsTHP(t *testing.T) {
	cfg := smallCfg()
	cfg.HoleFraction = 0 // fully mapped heap: maximal THP
	s := Generate(cfg, 2)
	trs := s.Translations(true)
	huge := 0
	var pages uint64
	for _, tr := range trs {
		if tr.Size == addr.Page2M {
			huge++
			if !addr.Aligned(tr.VPN, addr.Page2M) {
				t.Fatal("unaligned 2M translation")
			}
		}
		pages += tr.Size.BaseVPNs()
	}
	if huge == 0 {
		t.Error("THP produced no huge pages on a fully mapped heap")
	}
	if pages != uint64(s.TotalMapped()) {
		t.Errorf("translations cover %d pages, mapped %d", pages, s.TotalMapped())
	}
	if len(trs) >= s.TotalMapped() {
		t.Error("THP must reduce translation count")
	}
}

func TestTranslationsTHPPartialRuns(t *testing.T) {
	cfg := smallCfg()
	cfg.HoleFraction = 0.3 // heavy holes: most 2M runs incomplete
	cfg.MeanHoleRun = 2
	s := Generate(cfg, 2)
	trs := s.Translations(true)
	var pages uint64
	seen := map[addr.VPN]bool{}
	for _, tr := range trs {
		for i := addr.VPN(0); i < addr.VPN(tr.Size.BaseVPNs()); i++ {
			if seen[tr.VPN+i] {
				t.Fatalf("VPN %#x covered twice", uint64(tr.VPN+i))
			}
			seen[tr.VPN+i] = true
		}
		pages += tr.Size.BaseVPNs()
	}
	if pages != uint64(s.TotalMapped()) {
		t.Errorf("coverage %d != mapped %d", pages, s.TotalMapped())
	}
}

func TestNormalizerPacksRegions(t *testing.T) {
	s := Generate(smallCfg(), 9)
	n := NewNormalizer(s)
	vpns := s.MappedVPNs()
	rawSpan := uint64(vpns[len(vpns)-1] - vpns[0])

	var norm []addr.VPN
	for _, v := range vpns {
		norm = append(norm, n.Normalize(v))
	}
	// Normalized VPNs must preserve order and be unique.
	for i := 1; i < len(norm); i++ {
		if norm[i] <= norm[i-1] {
			t.Fatal("normalization broke ordering")
		}
	}
	normSpan := uint64(norm[len(norm)-1] - norm[0])
	if normSpan >= rawSpan {
		t.Errorf("normalization did not compact the space: %d >= %d", normSpan, rawSpan)
	}
	// Gap coverage is preserved (intra-region structure untouched; 2MB
	// alignment padding may perturb a handful of inter-region pairs).
	if GapCoverage(norm) < GapCoverage(vpns)-1e-3 {
		t.Errorf("normalization reduced regularity: %.4f -> %.4f",
			GapCoverage(vpns), GapCoverage(norm))
	}
}

func TestNormalizerPreservesHugeAlignment(t *testing.T) {
	s := Generate(smallCfg(), 4)
	n := NewNormalizer(s)
	for _, r := range s.Regions {
		base2M := addr.AlignDown(r.Base+511, addr.Page2M)
		if base2M >= r.Base+addr.VPN(r.Span) {
			continue
		}
		nb := n.Normalize(base2M)
		rel := base2M - r.Base
		if (nb-n.Normalize(r.Base))%512 != rel%512 {
			t.Fatal("normalization changed intra-region page offsets")
		}
	}
}

func TestNormalizeOutsideRegions(t *testing.T) {
	s := Generate(smallCfg(), 4)
	n := NewNormalizer(s)
	if got := n.Normalize(0); got != 0 {
		t.Errorf("VPN outside regions should pass through, got %#x", uint64(got))
	}
}

func TestQuickNormalizerOrderPreserving(t *testing.T) {
	// Property: for any layout, normalization is strictly monotone over
	// mapped VPNs and keeps every VPN inside a region mapped into the
	// packed image of that region.
	for seed := int64(0); seed < 12; seed++ {
		cfg := smallCfg()
		s := Generate(cfg, seed)
		n := NewNormalizer(s)
		var prev addr.VPN
		first := true
		for _, v := range s.MappedVPNs() {
			nv := n.Normalize(v)
			if !first && nv <= prev {
				t.Fatalf("seed %d: normalization not monotone at %#x", seed, uint64(v))
			}
			prev, first = nv, false
		}
	}
}

func TestRegionSpansAre2MAligned(t *testing.T) {
	// The normalizer and the index's granule snapping rely on 2MB-aligned
	// region bases.
	for seed := int64(0); seed < 8; seed++ {
		s := Generate(DefaultConfig(), seed)
		for _, r := range s.Regions {
			if uint64(r.Base)%512 != 0 {
				t.Fatalf("seed %d: region %s base %#x not 2MB aligned", seed, r.Kind, uint64(r.Base))
			}
		}
	}
}

// TestTranslationsGolden pins Translations bit for bit over several layouts,
// with and without THP: each digest is FNV-64a over every translation's VPN
// and size, in output order. The layouts mix full, partial and hole-split
// 2 MB chunks; "offset" adds a THP-eligible region whose base is not 2 MB
// aligned, with chunks that each miss one first, middle or last page.
func TestTranslationsGolden(t *testing.T) {
	gen := func(mod func(*LayoutConfig), seed int64) func() *AddressSpace {
		return func() *AddressSpace {
			cfg := smallCfg()
			mod(&cfg)
			return Generate(cfg, seed)
		}
	}
	offset := func() *AddressSpace {
		s := Generate(smallCfg(), 9)
		r := Region{Kind: Mmap, Base: 0x1_0000_0100, Span: 5 * 512, THPEligible: true}
		for i := 0; i < r.Span; i++ {
			if v := r.Base + addr.VPN(i); v != 0x1_0000_0400 && v != 0x1_0000_07ff && v != 0x1_0000_0900+77 {
				r.Mapped = append(r.Mapped, v)
			}
		}
		s.Regions = append(s.Regions, r)
		return s
	}
	cases := []struct {
		name  string
		space func() *AddressSpace
		want  [2]uint64 // THP off, on
	}{
		{"default/1", gen(func(*LayoutConfig) {}, 1), [2]uint64{0x7e0c0a5f5b757595, 0x7e0c0a5f5b757595}},
		{"full/2", gen(func(c *LayoutConfig) { c.HoleFraction = 0 }, 2), [2]uint64{0xf0cbd710a9b931a5, 0xb928c8f10eb202b5}},
		{"sparse-holes/3", gen(func(c *LayoutConfig) { c.HoleFraction, c.MeanHoleRun = 0.002, 3 }, 3), [2]uint64{0xe3a50456d8c22210, 0x8556fab1c9ccae02}},
		{"tcmalloc/4", gen(func(c *LayoutConfig) { c.HoleFraction, c.Allocator = 0.001, Tcmalloc }, 4), [2]uint64{0xd380579fd1de5147, 0x9d3fbc853bf45da4}},
		{"heavy-holes/2", gen(func(c *LayoutConfig) { c.HoleFraction, c.MeanHoleRun = 0.3, 2 }, 2), [2]uint64{0xbf288a3c569dd42f, 0xbf288a3c569dd42f}},
		{"no-aslr/5", gen(func(c *LayoutConfig) { c.HoleFraction, c.ASLR = 0.001, false }, 5), [2]uint64{0x820853382713a4c8, 0x9fa82999e963f9cc}},
		{"offset/9", offset, [2]uint64{0x6b16ca10115b99a, 0x97af49884ccabb9b}},
	}
	for _, c := range cases {
		s := c.space()
		for i, thp := range []bool{false, true} {
			h := fnv.New64a()
			var b [16]byte
			for _, tr := range s.Translations(thp) {
				binary.LittleEndian.PutUint64(b[:8], uint64(tr.VPN))
				binary.LittleEndian.PutUint64(b[8:], tr.Size.BaseVPNs())
				h.Write(b[:])
			}
			if got := h.Sum64(); got != c.want[i] {
				t.Errorf("%s thp=%t: digest %#x, want %#x", c.name, thp, got, c.want[i])
			}
		}
	}
}
