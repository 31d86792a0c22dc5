package core_test

import (
	"fmt"
	"testing"

	"lvm/internal/core"
	"lvm/internal/experiments"
	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/workload"
)

// TestIndexGolden pins every index the quick sweep's LVM launches build:
// the normalized bfs, gups and mem$ spaces of experiments.Quick, without and
// with THP, at workload seeds 42 and 43, each launched into physical memory
// sized as the quick sweep sizes it (RunCostBytes). Each case
// pins IndexDigest of the launched index and of a full rebuild of it. The
// digests were taken before the fanout search was restructured, so the
// §4.2.3 cost model's choices, the trained models, the slot layout and every
// slot's physical address cannot move without failing here.
func TestIndexGolden(t *testing.T) {
	want := map[string][2]uint64{ // launch, rebuild
		"bfs/4K/42":   {0x1a8a34039176871d, 0x1a8a34039176871d},
		"bfs/THP/42":  {0x180fa242f360369c, 0xdc85ef5972fc250f},
		"gups/4K/42":  {0x932faa96f28b63df, 0x932faa96f28b63df},
		"gups/THP/42": {0x3842f71756d1f98c, 0x47b5e314c6d6e62b},
		"mem$/4K/42":  {0xd9472a02a711af2b, 0xd9472a02a711af2b},
		"mem$/THP/42": {0x35e29628f115561c, 0x6f6e8b25e631bfec},
		"bfs/4K/43":   {0x914a993b51b9d2a7, 0x914a993b51b9d2a7},
		"bfs/THP/43":  {0x73984ffc21a29be4, 0x715b2fcb53f5fd47},
		"gups/4K/43":  {0x57c0e5ee7161513, 0x57c0e5ee7161513},
		"gups/THP/43": {0xbf54457ad4a62db4, 0x63178c08a241f117},
		"mem$/4K/43":  {0x8078ccf07873747e, 0x8078ccf07873747e},
		"mem$/THP/43": {0xc61056c1ea9e9fa0, 0xcd512b5b72d1a510},
	}
	for _, seed := range []int64{42, 43} {
		cfg := experiments.Quick()
		cfg.Params.Seed = seed
		for _, name := range []string{"bfs", "gups", "mem$"} {
			w, err := workload.Build(name, cfg.Params)
			if err != nil {
				t.Fatal(err)
			}
			for _, thp := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/%d", name, map[bool]string{false: "4K", true: "THP"}[thp], seed)
				sys := oskernel.NewSystem(phys.New(cfg.RunCostBytes(w.FootprintBytes())), oskernel.SchemeLVM)
				proc, err := sys.Launch(1, w.Space, thp)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				ix := proc.LVMIndex()
				launch := core.IndexDigest(ix)
				if err := ix.Rebuild(); err != nil {
					t.Fatalf("%s: rebuild: %v", key, err)
				}
				got := [2]uint64{launch, core.IndexDigest(ix)}
				if got != want[key] {
					t.Errorf("%q: {%#x, %#x}, want %#x", key, got[0], got[1], want[key])
				}
			}
		}
	}
}

// BenchmarkBuildQuickSpaces times core.Build over the normalized quick gups
// and mem$ spaces (4 KB pages, seed 42), the index every LVM launch of the
// quick sweep trains; each iteration releases its index so the next one
// builds into the same free memory.
func BenchmarkBuildQuickSpaces(b *testing.B) {
	cfg := experiments.Quick()
	for _, name := range []string{"gups", "mem$"} {
		b.Run(name, func(b *testing.B) {
			w, err := workload.Build(name, cfg.Params)
			if err != nil {
				b.Fatal(err)
			}
			mem := phys.New(cfg.RunCostBytes(w.FootprintBytes()))
			proc, err := oskernel.NewSystem(mem, oskernel.SchemeLVM).Launch(1, w.Space, false)
			if err != nil {
				b.Fatal(err)
			}
			ms := proc.LVMIndex().Mappings()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := core.Build(mem, ms, core.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				ix.Release()
			}
		})
	}
}
