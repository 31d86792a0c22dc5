package addr

import (
	"testing"
	"testing/quick"
)

func TestPageSizeBytes(t *testing.T) {
	if Page4K.Bytes() != 4096 {
		t.Errorf("4K = %d", Page4K.Bytes())
	}
	if Page2M.Bytes() != 2<<20 {
		t.Errorf("2M = %d", Page2M.Bytes())
	}
	if Page1G.Bytes() != 1<<30 {
		t.Errorf("1G = %d", Page1G.Bytes())
	}
}

func TestPageSizeBaseVPNs(t *testing.T) {
	if Page4K.BaseVPNs() != 1 {
		t.Errorf("4K VPNs = %d", Page4K.BaseVPNs())
	}
	if Page2M.BaseVPNs() != 512 {
		t.Errorf("2M VPNs = %d", Page2M.BaseVPNs())
	}
	if Page1G.BaseVPNs() != 512*512 {
		t.Errorf("1G VPNs = %d", Page1G.BaseVPNs())
	}
}

func TestPageSizeString(t *testing.T) {
	if Page4K.String() != "4KB" || Page2M.String() != "2MB" || Page1G.String() != "1GB" {
		t.Errorf("String() = %s %s %s", Page4K, Page2M, Page1G)
	}
}

func TestVPNRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		va := VA(raw & ((1 << VABits) - 1))
		v := VPNOf(va)
		return VAOf(v) <= va && va < VAOf(v)+PageSize4K
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignDown(t *testing.T) {
	// Paper §4.4 example: the 2MB page spans VPNs [1024, 1536); every VPN
	// inside it must round down to 1024.
	for _, v := range []VPN{1024, 1025, 1300, 1535} {
		if got := AlignDown(v, Page2M); got != 1024 {
			t.Errorf("AlignDown(%d, 2M) = %d want 1024", v, got)
		}
	}
	if got := AlignDown(1536, Page2M); got != 1536 {
		t.Errorf("AlignDown(1536, 2M) = %d want 1536", got)
	}
	if got := AlignDown(142, Page4K); got != 142 {
		t.Errorf("AlignDown(142, 4K) = %d want 142", got)
	}
}

func TestAligned(t *testing.T) {
	if !Aligned(1024, Page2M) {
		t.Error("1024 should be 2M-aligned")
	}
	if Aligned(1025, Page2M) {
		t.Error("1025 should not be 2M-aligned")
	}
	if !Aligned(7, Page4K) {
		t.Error("every VPN is 4K-aligned")
	}
}

func TestTranslate(t *testing.T) {
	va := VA(139<<PageShift + 0x123)
	got := Translate(va, PPN(0xff), Page4K)
	want := PA(0xff<<PageShift + 0x123)
	if got != want {
		t.Errorf("Translate = %#x want %#x", got, want)
	}
}

func TestTranslateHugePreservesOffset(t *testing.T) {
	// A 2MB translation must preserve the full 21-bit offset.
	va := VA(uint64(1024)<<PageShift + 0x1fe345)
	got := Translate(va, PPN(512), Page2M) // PPN of the huge page's base
	want := PA(uint64(512)<<PageShift + 0x1fe345)
	if got != want {
		t.Errorf("huge Translate = %#x want %#x", got, want)
	}
}

func TestRadixIndex(t *testing.T) {
	// VPN bits: [35:27]=L4, [26:18]=L3, [17:9]=L2, [8:0]=L1.
	v := VPN(0)
	v |= 5 << 27  // L4
	v |= 17 << 18 // L3
	v |= 511 << 9 // L2
	v |= 3        // L1
	if got := RadixIndex(v, 4); got != 5 {
		t.Errorf("L4 index = %d", got)
	}
	if got := RadixIndex(v, 3); got != 17 {
		t.Errorf("L3 index = %d", got)
	}
	if got := RadixIndex(v, 2); got != 511 {
		t.Errorf("L2 index = %d", got)
	}
	if got := RadixIndex(v, 1); got != 3 {
		t.Errorf("L1 index = %d", got)
	}
}

func TestRadixIndexPanicsOnBadLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for level 0")
		}
	}()
	RadixIndex(0, 0)
}

func TestQuickRadixIndicesReconstructVPN(t *testing.T) {
	f := func(raw uint64) bool {
		v := VPN(raw & MaxVPN)
		var rebuilt uint64
		for level := RadixLevels; level >= 1; level-- {
			rebuilt = rebuilt<<RadixBitsPerLevel | uint64(RadixIndex(v, level))
		}
		return VPN(rebuilt) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOffset(t *testing.T) {
	va := VA(0x12345678)
	if got := Offset(va, Page4K); got != 0x678 {
		t.Errorf("4K offset = %#x", got)
	}
	if got := Offset(va, Page2M); got != 0x145678 {
		t.Errorf("2M offset = %#x", got)
	}
}
