package oskernel

import (
	"fmt"
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/mmu"
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

// choices is where the stream draws its decisions: a seeded *rand.Rand,
// or a fuzz input through byteChoices.
type choices interface {
	Intn(n int) int
	Int63n(n int64) int64
	Int63() int64
}

// byteChoices draws each decision from the next bytes of a fuzz input:
// one byte for Intn and Int63 (ProtectableFlags sit in the low byte), four
// little-endian for Int63n. An exhausted input reads as zeros.
type byteChoices struct{ b []byte }

func (c *byteChoices) next(k int) uint64 {
	var v uint64
	for i := 0; i < k && len(c.b) > 0; i++ {
		v |= uint64(c.b[0]) << (8 * i)
		c.b = c.b[1:]
	}
	return v
}

func (c *byteChoices) Intn(n int) int       { return int(c.next(1) % uint64(n)) }
func (c *byteChoices) Int63n(n int64) int64 { return int64(c.next(4) % uint64(n)) }
func (c *byteChoices) Int63() int64         { return int64(c.next(1)) }
func (c *byteChoices) empty() bool          { return len(c.b) == 0 }

func (rp *refProc) pick(c choices) addr.VPN {
	s := rp.spans[c.Intn(len(rp.spans))]
	return s[0] + addr.VPN(c.Int63n(int64(s[1]-s[0])))
}

// check compares the OS's software walk, the hardware walker and its pure
// Lookup with the reference at v.
func check(t *testing.T, sys *System, asid uint16, ref refTable, v addr.VPN, step int, op string) {
	t.Helper()
	want, ok := ref.Lookup(v)
	sw, swOK := sys.SoftwareLookup(asid, v)
	hw := sys.Walker().Walk(asid, v)
	lk, lkOK := sys.Walker().(mmu.Lookuper).Lookup(asid, v)
	if swOK != ok || hw.Found != ok || lkOK != ok || (ok && (sw != want || hw.Entry != want || lk != want)) {
		t.Fatalf("step %d (%s) asid %d VPN %#x: reference %v/%t, software %v/%t, walker %v/%t, lookup %v/%t",
			step, op, asid, uint64(v), want, ok, sw, swOK, hw.Entry, hw.Found, lk, lkOK)
	}
}

// refOp is one operation of the reference stream.
type refOp int

const (
	opMap     refOp = iota // map a 4 KB page, refused if v is covered
	opUnmap                // unmap, often a huge page's interior
	opProtect              // change the protectable flags
	opGrow                 // map the next page past the heap's span
	opKill                 // kill and relaunch ASID 2
	numOps
)

var opNames = [numOps]string{"map", "unmap", "protect", "grow", "kill"}

// refStream runs one scheme, with or without THP, over two co-resident
// processes, checking both against refTable after every operation.
type refStream struct {
	t      *testing.T
	mem    *phys.Memory
	free   uint64 // free pages before the first launch
	sys    *System
	thp    bool
	spaces [3]func(seed int64) *vas.AddressSpace // by ASID
	procs  map[uint16]*refProc
}

// newRefStream launches both processes with heaps of the given size: ASID
// 1's with holes and two mmap regions of a quarter its size (smallSpace at
// 4096 pages), ASID 2's hole-free with one.
func newRefStream(t *testing.T, scheme Scheme, thp bool, heap int) *refStream {
	mem := phys.New(512 << 20)
	st := &refStream{t: t, mem: mem, free: mem.FreePages(), sys: NewSystem(mem, scheme), thp: thp,
		procs: map[uint16]*refProc{}}
	for asid := uint16(1); asid <= 2; asid++ {
		cfg := vas.DefaultConfig()
		cfg.HeapPages = heap
		cfg.MmapPages = heap / 4
		cfg.MmapRegions = 2
		if asid == 2 {
			cfg.MmapRegions = 1
			cfg.HoleFraction = 0
		}
		st.spaces[asid] = func(seed int64) *vas.AddressSpace { return vas.Generate(cfg, seed) }
		st.procs[asid] = refLaunch(t, st.sys, asid, st.spaces[asid](int64(asid)*13), thp)
	}
	return st
}

// do applies op at v in asid (a kill always hits ASID 2) and checks v and
// one more picked VPN against the reference.
func (st *refStream) do(step int, asid uint16, v addr.VPN, op refOp, c choices) {
	t, sys := st.t, st.sys
	t.Helper()
	rp := st.procs[asid]
	switch op {
	case opKill:
		// Walk ASID 2 first so every walker's memo holds it: Drop must
		// clear the memo, or the killed ASID's walk finds its released
		// table.
		check(t, sys, 2, st.procs[2].ref, v, step, "pre-kill")
		if err := sys.Kill(2); err != nil {
			t.Fatal(err)
		}
		check(t, sys, 2, refTable{}, v, step, "kill")
		st.procs[2] = refLaunch(t, sys, 2, st.spaces[2](int64(step)), st.thp)
		asid, rp = 2, st.procs[2]
	case opMap:
		_, _, covered := rp.ref.find(v)
		err := sys.MapPage(asid, v, addr.Page4K)
		if covered != (err != nil) {
			t.Fatalf("step %d: map %#x covered=%t: %v", step, uint64(v), covered, err)
		}
		if err == nil {
			dp := sys.procs[asid].dataPages[v]
			rp.ref.Map(v, pte.New(dp.base, addr.Page4K))
		}
	case opUnmap:
		if got, want := sys.UnmapPage(asid, v), rp.ref.Unmap(v); got != want {
			t.Fatalf("step %d: unmap %#x = %t, reference %t", step, uint64(v), got, want)
		}
	case opProtect:
		set := pte.Entry(c.Int63()) & ProtectableFlags
		clr := pte.Entry(c.Int63()) & ProtectableFlags &^ set
		if got, want := sys.Protect(asid, v, set, clr), rp.ref.SetFlags(v, set, clr); got != want {
			t.Fatalf("step %d: protect %#x = %t, reference %t", step, uint64(v), got, want)
		}
	case opGrow:
		size := addr.Page4K
		if st.thp {
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
		v += addr.VPN(c.Int63n(int64(size.BaseVPNs())))
	}
	check(t, sys, asid, rp.ref, v, step, opNames[op])
	check(t, sys, asid, rp.ref, rp.pick(c), step, opNames[op])
}

// finish kills both processes; the allocator must then hold every page it
// held before the first launch.
func (st *refStream) finish() {
	for _, asid := range []uint16{1, 2} {
		if err := st.sys.Kill(asid); err != nil {
			st.t.Fatal(err)
		}
	}
	if got := st.mem.FreePages(); got != st.free {
		st.t.Errorf("leaked %d pages (free %d -> %d)", st.free-got, st.free, got)
	}
}

// seededOps maps the seeded stream's draw from [0, 10) to its operation.
var seededOps = [10]refOp{opMap, opMap, opMap, opUnmap, opUnmap, opUnmap, opProtect, opProtect, opGrow, opGrow}

// TestSchemesMatchReference drives every scheme, with and without THP,
// through one seeded stream of maps, unmaps (huge-page interiors
// included), protects, growth past the heap (2 MB pages under THP) and a
// kill and relaunch, over two co-resident processes. After every step the
// OS's software walk, the hardware walker and its Lookup must agree with
// refTable, and once every process is killed the allocator must hold every
// page it held before launch.
func TestSchemesMatchReference(t *testing.T) {
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/thp=%t", scheme, thp), func(t *testing.T) {
				st := newRefStream(t, scheme, thp, 4096)
				rng := rand.New(rand.NewSource(42))
				const steps = 3000
				for step := 0; step < steps; step++ {
					asid := uint16(1 + rng.Intn(2))
					v := st.procs[asid].pick(rng)
					op := seededOps[rng.Intn(10)]
					if step == steps/2 {
						op = opKill
					}
					st.do(step, asid, v, op, rng)
				}
				st.finish()
			})
		}
	}
}

// FuzzSchemesMatchReference is TestSchemesMatchReference with the stream
// drawn from the input over quarter-size heaps: its first byte picks the
// scheme and THP, then each step's bytes pick the ASID, the VPN and the
// operation (kill and relaunch of ASID 2 included) until the input runs
// out.
func FuzzSchemesMatchReference(f *testing.F) {
	schemes := AllSchemes()
	for i := range 2 * len(schemes) {
		// Per step: ASID, span, 4-byte offset, op, the op's own draws (two
		// flag bytes for protect, a 4-byte offset for grow), then span and
		// offset of the second checked VPN. These map, unmap, protect and
		// grow on ASID 1, kill and relaunch ASID 2, then map in it.
		f.Add([]byte{byte(i),
			0, 0, 5, 0, 0, 0, byte(opMap), 0, 6, 0, 0, 0,
			0, 0, 5, 0, 0, 0, byte(opUnmap), 1, 9, 0, 0, 0,
			0, 1, 9, 0, 0, 0, byte(opProtect), 0x66, 0x02, 0, 7, 0, 0, 0,
			0, 0, 0, 0, 0, 0, byte(opGrow), 3, 0, 0, 0, 0, 0, 0, 0, 0,
			1, 0, 0, 0, 0, 0, byte(opKill), 0, 1, 0, 0, 0,
			1, 1, 3, 0, 0, 0, byte(opMap), 0, 0, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChoices{b: data}
		sel := c.Intn(2 * len(schemes))
		st := newRefStream(t, schemes[sel/2], sel%2 == 1, 1024)
		for step := 0; step < 64 && !c.empty(); step++ {
			asid := uint16(1 + c.Intn(2))
			v := st.procs[asid].pick(c)
			st.do(step, asid, v, refOp(c.Intn(int(numOps))), c)
		}
		st.finish()
	})
}
