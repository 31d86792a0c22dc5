package oskernel

import (
	"fmt"
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/vas"
)

// refTable is the reference translator: a plain map from each page's base
// VPN to its entry, with nothing learned, hashed or cached. A VPN is mapped
// if the 4 KB, 2 MB or 1 GB base above it holds an entry of that size.
type refTable map[addr.VPN]pte.Entry

var (
	_ pageTable  = refTable{}
	_ flagSetter = refTable{}
)

// find returns the base and entry of the page that covers v.
func (t refTable) find(v addr.VPN) (addr.VPN, pte.Entry, bool) {
	for _, size := range [...]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		base := addr.AlignDown(v, size)
		if e, ok := t[base]; ok && e.Size() == size {
			return base, e, true
		}
	}
	return 0, 0, false
}

func (t refTable) Map(v addr.VPN, e pte.Entry) error {
	if !addr.Aligned(v, e.Size()) {
		return fmt.Errorf("ref: %#x is not %s-aligned", uint64(v), e.Size())
	}
	t[v] = e
	return nil
}

func (t refTable) Unmap(v addr.VPN) bool {
	base, _, ok := t.find(v)
	delete(t, base)
	return ok
}

func (t refTable) Lookup(v addr.VPN) (pte.Entry, bool) {
	_, e, ok := t.find(v)
	return e, ok
}

func (t refTable) Release() { clear(t) }

func (t refTable) SetFlags(v addr.VPN, set, clr pte.Entry) bool {
	base, e, ok := t.find(v)
	if ok {
		t[base] = (e | set) &^ clr
	}
	return ok
}

// covered reports whether any page of the reference overlaps [v, v+n).
func (t refTable) covered(v addr.VPN, n int) bool {
	for i := 0; i < n; i++ {
		if _, _, ok := t.find(v + addr.VPN(i)); ok {
			return true
		}
	}
	return false
}

// refProc is one process of the stream with its reference table and the
// VPN ranges the stream draws from.
type refProc struct {
	ref    refTable
	spans  [][2]addr.VPN // [lo, hi) of every region and of the growth area
	grow   addr.VPN      // next growth VPN past the heap
	growHi addr.VPN      // first VPN of the next region above the heap
}

// refLaunch launches space and seeds its reference from the OS's own frame
// record of what launch mapped.
func refLaunch(t *testing.T, sys *System, asid uint16, space *vas.AddressSpace, thp bool) *refProc {
	t.Helper()
	p, err := sys.Launch(asid, space, thp)
	if err != nil {
		t.Fatalf("launch %d: %v", asid, err)
	}
	rp := &refProc{ref: refTable{}}
	for _, m := range p.launched {
		if err := rp.ref.Map(m.VPN, m.Entry); err != nil {
			t.Fatal(err)
		}
	}
	heap := heapOf(space)
	rp.grow = addr.AlignDown(heap.Base+addr.VPN(heap.Span)+511, addr.Page2M)
	rp.growHi = rp.grow + 1<<14
	for _, r := range space.Regions {
		rp.spans = append(rp.spans, [2]addr.VPN{r.Base, r.Base + addr.VPN(r.Span)})
		if r.Base > heap.Base && r.Base < rp.growHi {
			rp.growHi = r.Base
		}
	}
	rp.spans = append(rp.spans, [2]addr.VPN{rp.grow, rp.growHi})
	return rp
}

func (rp *refProc) pick(rng *rand.Rand) addr.VPN {
	s := rp.spans[rng.Intn(len(rp.spans))]
	return s[0] + addr.VPN(rng.Int63n(int64(s[1]-s[0])))
}

// check compares the OS's software walk and the hardware walker with the
// reference at v.
func check(t *testing.T, sys *System, asid uint16, ref refTable, v addr.VPN, step int, op string) {
	t.Helper()
	want, ok := ref.Lookup(v)
	sw, swOK := sys.SoftwareLookup(asid, v)
	hw := sys.Walker().Walk(asid, v)
	if swOK != ok || hw.Found != ok || (ok && (sw != want || hw.Entry != want)) {
		t.Fatalf("step %d (%s) asid %d VPN %#x: reference %v/%t, software %v/%t, walker %v/%t",
			step, op, asid, uint64(v), want, ok, sw, swOK, hw.Entry, hw.Found)
	}
}

// TestSchemesMatchReference drives every scheme, with and without THP,
// through one seeded stream of maps, unmaps (huge-page interiors
// included), protects, growth past the heap (2 MB pages under THP) and a
// kill and relaunch, over two co-resident processes. After every step the
// OS's software walk and the hardware walker must agree with refTable, and
// once every process is killed the allocator must hold every page it held
// before launch.
func TestSchemesMatchReference(t *testing.T) {
	holeFree := vas.DefaultConfig()
	holeFree.HeapPages = 4096
	holeFree.MmapRegions = 1
	holeFree.MmapPages = 1024
	holeFree.HoleFraction = 0
	spaces := map[uint16]func(int64) *vas.AddressSpace{
		1: smallSpace,
		2: func(seed int64) *vas.AddressSpace { return vas.Generate(holeFree, seed) },
	}
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/thp=%t", scheme, thp), func(t *testing.T) {
				mem := phys.New(512 << 20)
				before := mem.FreePages()
				sys := NewSystem(mem, scheme)
				procs := map[uint16]*refProc{}
				for _, asid := range []uint16{1, 2} {
					procs[asid] = refLaunch(t, sys, asid, spaces[asid](int64(asid)*13), thp)
				}
				rng := rand.New(rand.NewSource(42))
				const steps = 3000
				for step := 0; step < steps; step++ {
					asid := uint16(1 + rng.Intn(2))
					rp := procs[asid]
					v := rp.pick(rng)
					var op string
					switch k := rng.Intn(10); {
					case step == steps/2: // kill and relaunch asid 2
						op = "kill"
						if err := sys.Kill(2); err != nil {
							t.Fatal(err)
						}
						check(t, sys, 2, refTable{}, v, step, op)
						procs[2] = refLaunch(t, sys, 2, spaces[2](int64(step)), thp)
						asid, rp = 2, procs[2]
					case k < 3: // map a 4 KB page, refused if v is covered
						op = "map"
						_, _, covered := rp.ref.find(v)
						err := sys.MapPage(asid, v, addr.Page4K)
						if covered != (err != nil) {
							t.Fatalf("step %d: map %#x covered=%t: %v", step, uint64(v), covered, err)
						}
						if err == nil {
							dp := sys.procs[asid].dataPages[v]
							rp.ref.Map(v, pte.New(dp.base, addr.Page4K))
						}
					case k < 6: // unmap, often a huge page's interior
						op = "unmap"
						if got, want := sys.UnmapPage(asid, v), rp.ref.Unmap(v); got != want {
							t.Fatalf("step %d: unmap %#x = %t, reference %t", step, uint64(v), got, want)
						}
					case k < 8: // protect
						op = "protect"
						set := pte.Entry(rng.Int63()) & ProtectableFlags
						clr := pte.Entry(rng.Int63()) & ProtectableFlags &^ set
						if got, want := sys.Protect(asid, v, set, clr), rp.ref.SetFlags(v, set, clr); got != want {
							t.Fatalf("step %d: protect %#x = %t, reference %t", step, uint64(v), got, want)
						}
					default: // grow past the heap's span
						op = "grow"
						size := addr.Page4K
						if thp {
							size = addr.Page2M
						}
						v = addr.AlignDown(rp.grow, size)
						if v+addr.VPN(size.BaseVPNs()) > rp.growHi {
							break
						}
						rp.grow = v + addr.VPN(size.BaseVPNs())
						if rp.ref.covered(v, int(size.BaseVPNs())) {
							break
						}
						if err := sys.MapPage(asid, v, size); err != nil {
							t.Fatalf("step %d: grow %#x: %v", step, uint64(v), err)
						}
						dp := sys.procs[asid].dataPages[v]
						rp.ref.Map(v, pte.New(dp.base, size))
						v += addr.VPN(rng.Int63n(int64(size.BaseVPNs())))
					}
					check(t, sys, asid, rp.ref, v, step, op)
					check(t, sys, asid, rp.ref, rp.pick(rng), step, op)
				}
				for _, asid := range []uint16{1, 2} {
					if err := sys.Kill(asid); err != nil {
						t.Fatal(err)
					}
				}
				if got := mem.FreePages(); got != before {
					t.Errorf("leaked %d pages (free %d -> %d)", before-got, before, got)
				}
			})
		}
	}
}
