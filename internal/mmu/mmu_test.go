package mmu

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/pte"
)

func TestOutcomeRefs(t *testing.T) {
	var b WalkBuf
	b.AddGroup(1)
	b.AddGroup(2, 3, 4)
	o := b.Outcome(0, false, 0)
	if o.Refs() != 4 {
		t.Errorf("refs = %d", o.Refs())
	}
	if o.NumGroups() != 2 {
		t.Errorf("groups = %d", o.NumGroups())
	}
	if g := o.Group(1); len(g) != 3 || g[0] != 2 || g[2] != 4 {
		t.Errorf("group 1 = %v", g)
	}
	if all := o.AllRefs(); len(all) != 4 || all[0] != addr.PA(1) {
		t.Errorf("all refs = %v", all)
	}
}

// TestWalkBufGoldenTraces replays golden walk traces through WalkBuf and
// checks the flat representation reproduces the old grouped semantics
// ([][]addr.PA) exactly: group count, group membership, ref count, and the
// latency formula over groups.
func TestWalkBufGoldenTraces(t *testing.T) {
	cases := []struct {
		name     string
		build    func(b *WalkBuf)
		groups   [][]addr.PA
		collapse bool
	}{
		{"empty", func(b *WalkBuf) {}, nil, false},
		{"radix-cold", func(b *WalkBuf) {
			for _, pa := range []addr.PA{0x1000, 0x2000, 0x3000, 0x4000} {
				b.AddGroup(pa)
			}
		}, [][]addr.PA{{0x1000}, {0x2000}, {0x3000}, {0x4000}}, false},
		{"ecpt-warm", func(b *WalkBuf) {
			b.Group()
			b.Add(0x10)
			b.Add(0x20)
			b.Add(0x30)
		}, [][]addr.PA{{0x10, 0x20, 0x30}}, false},
		{"ecpt-cold", func(b *WalkBuf) {
			b.AddGroup(0x99) // CWT fetch
			b.Group()
			b.Add(0x10)
			b.Add(0x20)
		}, [][]addr.PA{{0x99}, {0x10, 0x20}}, false},
		{"empty-group-dropped", func(b *WalkBuf) {
			b.Group()
			b.Group()
			b.AddGroup(0x40)
		}, [][]addr.PA{{0x40}}, false},
		{"asap-collapsed", func(b *WalkBuf) {
			b.Collapse()
			b.Add(0x1) // prefetch PT
			b.Add(0x2) // prefetch PMD
			// radix walk composed in: each AddGroup folds into the burst
			b.AddGroup(0x3)
			b.AddGroup(0x4)
		}, [][]addr.PA{{0x1, 0x2, 0x3, 0x4}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b WalkBuf
			// Exercise reuse: dirty the buffer, then Reset must restore a
			// clean trace.
			b.AddGroup(0xdead, 0xbeef)
			b.Reset()
			tc.build(&b)
			o := b.Outcome(0, true, 3)

			wantRefs := 0
			for _, g := range tc.groups {
				wantRefs += len(g)
			}
			if o.Refs() != wantRefs {
				t.Errorf("refs = %d, want %d", o.Refs(), wantRefs)
			}
			if o.NumGroups() != len(tc.groups) {
				t.Fatalf("groups = %d, want %d", o.NumGroups(), len(tc.groups))
			}
			for gi, want := range tc.groups {
				got := o.Group(gi)
				if len(got) != len(want) {
					t.Fatalf("group %d = %v, want %v", gi, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("group %d[%d] = %#x, want %#x", gi, i, got[i], want[i])
					}
				}
			}
			// Old latency semantics: WalkCacheCycles·walkCache + groups·perRef.
			if got, want := o.Latency(10, 2), 3*2+len(tc.groups)*10; got != want {
				t.Errorf("latency = %d, want %d", got, want)
			}
		})
	}
}

// TestWalkBufVerifyRegion checks the verify seam: BeginVerify partitions the
// sealed trace into a critical prefix and a verify suffix without changing
// the trace itself — group count, membership, and the plain Latency formula
// are exactly what the same trace produces with no mark.
func TestWalkBufVerifyRegion(t *testing.T) {
	cases := []struct {
		name         string
		build        func(b *WalkBuf)
		groups       [][]addr.PA
		verifyGroups int
	}{
		{"no-mark", func(b *WalkBuf) {
			b.AddGroup(0x1000)
			b.AddGroup(0x2000)
		}, [][]addr.PA{{0x1000}, {0x2000}}, 0},
		{"victima-fill", func(b *WalkBuf) {
			b.AddGroup(0x10) // store probe (miss)
			b.AddGroup(0x1000)
			b.AddGroup(0x2000)
			b.BeginVerify()
			b.AddGroup(0x10) // store fill, off the critical path
		}, [][]addr.PA{{0x10}, {0x1000}, {0x2000}, {0x10}}, 1},
		{"revelator-verify-walk", func(b *WalkBuf) {
			b.AddGroup(0x8) // speculative hash probe
			b.BeginVerify()
			for _, pa := range []addr.PA{0x1000, 0x2000, 0x3000, 0x4000} {
				b.AddGroup(pa) // full radix verify walk overlaps the access
			}
		}, [][]addr.PA{{0x8}, {0x1000}, {0x2000}, {0x3000}, {0x4000}}, 4},
		{"mark-then-nothing", func(b *WalkBuf) {
			b.AddGroup(0x1000)
			b.BeginVerify()
		}, [][]addr.PA{{0x1000}}, 0},
		{"mark-splits-open-group", func(b *WalkBuf) {
			b.Group()
			b.Add(0x10)
			b.Add(0x20)
			b.BeginVerify()
			b.Add(0x30)
		}, [][]addr.PA{{0x10, 0x20}, {0x30}}, 1},
		{"verify-suffix-grouped", func(b *WalkBuf) {
			b.AddGroup(0x1)
			b.BeginVerify()
			b.Group()
			b.Add(0x2)
			b.Add(0x3)
			b.AddGroup(0x4)
		}, [][]addr.PA{{0x1}, {0x2, 0x3}, {0x4}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b WalkBuf
			// Reuse must clear a previous walk's mark too.
			b.AddGroup(0xdead)
			b.BeginVerify()
			b.AddGroup(0xbeef)
			b.Reset()
			tc.build(&b)
			o := b.Outcome(0, true, 3)

			if o.NumGroups() != len(tc.groups) {
				t.Fatalf("groups = %d, want %d", o.NumGroups(), len(tc.groups))
			}
			for gi, want := range tc.groups {
				got := o.Group(gi)
				if len(got) != len(want) {
					t.Fatalf("group %d = %v, want %v", gi, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("group %d[%d] = %#x, want %#x", gi, i, got[i], want[i])
					}
				}
			}
			if o.VerifyGroups() != tc.verifyGroups {
				t.Errorf("verify groups = %d, want %d", o.VerifyGroups(), tc.verifyGroups)
			}
			if got, want := o.CriticalGroups(), len(tc.groups)-tc.verifyGroups; got != want {
				t.Errorf("critical groups = %d, want %d", got, want)
			}
			if o.HasVerify() != (tc.verifyGroups > 0) {
				t.Errorf("has verify = %v, want %v", o.HasVerify(), tc.verifyGroups > 0)
			}
			// The mark never changes the serial latency view.
			if got, want := o.Latency(10, 2), 3*2+len(tc.groups)*10; got != want {
				t.Errorf("latency = %d, want %d", got, want)
			}
		})
	}
}

// TestOverlapLatency pins the overlap formula: critical prefix serial, verify
// suffix charged as max(verify, access).
func TestOverlapLatency(t *testing.T) {
	build := func(critical, verify int) Outcome {
		var b WalkBuf
		for i := 0; i < critical; i++ {
			b.AddGroup(addr.PA(0x1000 * (i + 1)))
		}
		if verify > 0 {
			b.BeginVerify()
			for i := 0; i < verify; i++ {
				b.AddGroup(addr.PA(0x9000 * (i + 1)))
			}
		}
		return b.Outcome(0, true, 3)
	}
	const perRef, walkCache = 10, 2
	cases := []struct {
		name             string
		critical, verify int
		access           int
		want             int
	}{
		// No verify region: OverlapLatency ≡ Latency + access, always.
		{"no-verify-zero-access", 4, 0, 0, 3*walkCache + 4*perRef},
		{"no-verify-with-access", 4, 0, 37, 3*walkCache + 4*perRef + 37},
		// Verify fully hidden behind a slower access.
		{"verify-hidden", 1, 1, 50, 3*walkCache + 1*perRef + 50},
		// Verify longer than the access: only the excess is exposed.
		{"verify-exposed", 1, 4, 15, 3*walkCache + 1*perRef + 4*perRef},
		// Equal lengths: no exposure either way.
		{"verify-equal", 2, 2, 2 * perRef, 3*walkCache + 2*perRef + 2*perRef},
		// Zero access degenerates to the serial Latency.
		{"verify-zero-access", 2, 3, 0, 3*walkCache + 5*perRef},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := build(tc.critical, tc.verify)
			if got := o.OverlapLatency(perRef, walkCache, tc.access); got != tc.want {
				t.Errorf("overlap latency = %d, want %d", got, tc.want)
			}
			if tc.verify == 0 {
				if got, want := o.OverlapLatency(perRef, walkCache, tc.access), o.Latency(perRef, walkCache)+tc.access; got != want {
					t.Errorf("no-verify overlap = %d, want Latency+access = %d", got, want)
				}
			}
		})
	}
}

// verifyWalker emits a per-VPN trace with a verify suffix, for exercising
// the WalkSerial adaptation. Fixtures are explicit so slot mix-ups surface
// as value mismatches.
type verifyWalker struct{ buf WalkBuf }

var verifyWalkerFixtures = map[addr.VPN]struct {
	probe addr.PA
	ppn   addr.PPN
}{
	3: {0x3000, 0x33},
	5: {0x5000, 0x55},
	9: {0x9000, 0x99},
}

func (w *verifyWalker) Name() string { return "verify-test" }

func (w *verifyWalker) Walk(asid uint16, v addr.VPN) Outcome {
	fx := verifyWalkerFixtures[v]
	w.buf.Reset()
	w.buf.AddGroup(fx.probe)
	w.buf.BeginVerify()
	w.buf.AddGroup(0x7000, 0x8000)
	return w.buf.Outcome(pte.New(fx.ppn, addr.Page4K), true, StepCycles)
}

// TestWalkSerialVerifyPassthrough checks the serial batch adapter copies the
// verify partition along with the trace: each slot's Outcome must agree with
// the scalar walk on groups, verify split, and overlap latency.
func TestWalkSerialVerifyPassthrough(t *testing.T) {
	w := &verifyWalker{}
	vpns := []addr.VPN{3, 5, 9}
	var bufs WalkBatchBuf
	mmuWalkSerialTwice(t, w, vpns, &bufs)
}

// mmuWalkSerialTwice runs WalkSerial twice over the same batch (slot reuse
// must not leak a previous verify mark) and checks every slot both times.
func mmuWalkSerialTwice(t *testing.T, w Walker, vpns []addr.VPN, bufs *WalkBatchBuf) {
	t.Helper()
	for round := 0; round < 2; round++ {
		WalkSerial(w, 1, vpns, bufs)
		for i, v := range vpns {
			got := bufs.Outcome(i)
			want := w.Walk(1, v)
			if got.NumGroups() != want.NumGroups() || got.VerifyGroups() != want.VerifyGroups() {
				t.Fatalf("round %d slot %d: groups %d/%d, want %d/%d",
					round, i, got.NumGroups(), got.VerifyGroups(), want.NumGroups(), want.VerifyGroups())
			}
			if got.Entry != want.Entry || got.Found != want.Found {
				t.Errorf("round %d slot %d: entry %v/%v, want %v/%v",
					round, i, got.Entry, got.Found, want.Entry, want.Found)
			}
			if g, ww := got.OverlapLatency(10, 2, 15), want.OverlapLatency(10, 2, 15); g != ww {
				t.Errorf("round %d slot %d: overlap latency %d, want %d", round, i, g, ww)
			}
			for gi := 0; gi < want.NumGroups(); gi++ {
				gg, wg := got.Group(gi), want.Group(gi)
				if len(gg) != len(wg) {
					t.Fatalf("round %d slot %d group %d: %v, want %v", round, i, gi, gg, wg)
				}
				for j := range wg {
					if gg[j] != wg[j] {
						t.Errorf("round %d slot %d group %d[%d]: %#x, want %#x",
							round, i, gi, j, gg[j], wg[j])
					}
				}
			}
		}
	}
}

func TestLWCHitMiss(t *testing.T) {
	c := NewLWC(16)
	if c.Lookup(1, 1, 0) {
		t.Fatal("empty LWC hit")
	}
	c.Insert(1, 1, 0)
	if !c.Lookup(1, 1, 0) {
		t.Fatal("miss after insert")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", c.HitRate())
	}
}

func TestLWCASIDTagging(t *testing.T) {
	c := NewLWC(16)
	c.Insert(1, 1, 0)
	if c.Lookup(2, 1, 0) {
		t.Error("LWC leaked across ASIDs: context switch safety broken")
	}
	if !c.Lookup(1, 1, 0) {
		t.Error("original ASID lost — no flush should be needed on context switch")
	}
}

func TestLWCEviction(t *testing.T) {
	c := NewLWC(4)
	for i := 0; i < 4; i++ {
		c.Insert(1, 2, i)
	}
	c.Lookup(1, 2, 0) // make node 0 MRU
	c.Insert(1, 2, 9) // evicts LRU (node 1)
	if !c.Lookup(1, 2, 0) {
		t.Error("MRU node evicted")
	}
	if c.Lookup(1, 2, 1) {
		t.Error("LRU node survived")
	}
}

func TestLWCFlushASID(t *testing.T) {
	c := NewLWC(16)
	c.Insert(1, 1, 0)
	c.Insert(2, 1, 0)
	c.FlushASID(1)
	if c.Lookup(1, 1, 0) {
		t.Error("ASID flush failed")
	}
	if !c.Lookup(2, 1, 0) {
		t.Error("other ASID flushed")
	}
}

func TestPWC(t *testing.T) {
	c := NewPWC("pde", 32)
	if c.Lookup(1, 0x123) {
		t.Fatal("empty PWC hit")
	}
	c.Insert(1, 0x123)
	if !c.Lookup(1, 0x123) {
		t.Fatal("miss after insert")
	}
	if c.Lookup(2, 0x123) {
		t.Error("PWC leaked across ASIDs")
	}
	c.Invalidate(1, 0x123)
	if c.Lookup(1, 0x123) {
		t.Error("invalidated prefix hit")
	}
	if c.Name() != "pde" {
		t.Errorf("name = %q", c.Name())
	}
	if c.MissRate()+c.HitRate() != 1 {
		t.Errorf("rates do not sum to 1: %v + %v", c.MissRate(), c.HitRate())
	}
}
