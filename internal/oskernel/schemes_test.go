package oskernel

import (
	"testing"

	"lvm/internal/phys"
	"lvm/internal/vas"
)

// TestEverySchemeHasOps: the schemes table is the one place a scheme is
// wired in, so it must cover AllSchemes exactly.
func TestEverySchemeHasOps(t *testing.T) {
	for _, s := range AllSchemes() {
		if _, ok := schemes[s]; !ok {
			t.Errorf("scheme %q has no schemes entry", s)
		}
	}
	if len(schemes) != len(AllSchemes()) {
		t.Errorf("schemes has %d entries, AllSchemes %d", len(schemes), len(AllSchemes()))
	}
}

func TestNewSystemPanicsOnUnknownScheme(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSystem accepted an unknown scheme")
		}
	}()
	NewSystem(phys.New(64<<20), Scheme("nosuch"))
}

// TestTableOverheadBytesPinned pins TableOverheadBytes per scheme, so a
// table that gains or loses a TableBytes method cannot change §7.3's memory
// accounting unnoticed. ideal, fpt and asap report no overhead; every other
// scheme reports a positive one.
func TestTableOverheadBytesPinned(t *testing.T) {
	hugeCfg := vas.DefaultConfig()
	hugeCfg.HeapPages = 4096
	hugeCfg.MmapRegions = 1
	hugeCfg.MmapPages = 1024
	hugeCfg.HoleFraction = 0
	want := map[Scheme][2]uint64{ // {smallSpace(7) 4K and THP, hole-free THP}
		SchemeRadix:     {51648, 43296},
		SchemeECPT:      {305600, 346400},
		SchemeLVM:       {43472, 59872},
		SchemeIdeal:     {0, 0},
		SchemeFPT:       {0, 0},
		SchemeASAP:      {0, 0},
		SchemeMidgard:   {51648, 43296},
		SchemeVictima:   {182720, 174368},
		SchemeRevelator: {313792, 174368},
	}
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			sys, _ := launch(t, scheme, thp)
			if got := sys.TableOverheadBytes(1); got != want[scheme][0] {
				t.Errorf("%s thp=%t: overhead %d, want %d", scheme, thp, got, want[scheme][0])
			}
		}
		sys := NewSystem(phys.New(256<<20), scheme)
		if _, err := sys.Launch(1, vas.Generate(hugeCfg, 7), true); err != nil {
			t.Fatal(err)
		}
		if got := sys.TableOverheadBytes(1); got != want[scheme][1] {
			t.Errorf("%s hole-free THP: overhead %d, want %d", scheme, got, want[scheme][1])
		}
	}
}
