package core

import (
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// TestChurnKeepsErrorBound holds the index to §4.3.3's bounds while it
// changes, not only after a build: a seeded sequence of inserts into the
// gaps between runs (which fill gapped-table neighbourhoods and force leaf
// retrains), frees, inserts just past either edge, and inserts far beyond
// the key range (which force rebuilds). After every step the depth must
// stay within DLimit, every live key must translate to its entry, every
// freed key must miss, and every walk that did not overflow must fetch at
// most 1 + 2·C_err PTE clusters. At the end, the index's digest, its
// maintenance statistics and the overflowed-walk count must equal the pinned
// values: no golden test reaches retrains, lazy training, edge expansion,
// rescaling or in-place remaps otherwise.
func TestChurnKeepsErrorBound(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(11))
	live := map[addr.VPN]pte.Entry{}
	var ms []Mapping
	v := addr.VPN(0x40000)
	ppn := addr.PPN(1)
	for run := 0; run < 40; run++ {
		n := 16 + rng.Intn(200)
		for i := 0; i < n; i++ {
			ms = append(ms, Mapping{VPN: v, Entry: pte.New(ppn, addr.Page4K)})
			live[v] = ms[len(ms)-1].Entry
			v++
			ppn++
		}
		v += addr.VPN(8 + rng.Intn(120))
	}
	ix, err := Build(phys.New(256<<20), ms, p)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ms[0].VPN, ms[len(ms)-1].VPN
	insert := func(step int, v addr.VPN) {
		t.Helper()
		e := pte.New(ppn, addr.Page4K)
		ppn++
		if err := ix.Insert(Mapping{VPN: v, Entry: e}); err != nil {
			t.Fatalf("step %d: insert %#x: %v", step, uint64(v), err)
		}
		live[v] = e
	}
	var freed []addr.VPN
	walks, overflowed := 0, 0
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(20); {
		case op < 12:
			// Fill a gap from its low side, the way a region grows into
			// its neighbour's slack.
			at := lo + addr.VPN(rng.Int63n(int64(hi-lo)))
			for live[at] != 0 && at < hi {
				at++
			}
			for k := 0; k < 8 && at < hi && live[at] == 0; k++ {
				insert(step, at)
				at++
			}
		case op < 17:
			// Free a random live key.
			at := lo + addr.VPN(rng.Int63n(int64(hi-lo)))
			if _, ok := live[at]; ok {
				if !ix.Free(at) {
					t.Fatalf("step %d: free %#x: not found", step, uint64(at))
				}
				delete(live, at)
				freed = append(freed, at)
			}
		case op < 19:
			// Just past the high edge: batched extension.
			hi++
			insert(step, hi)
		default:
			// Far beyond the key range: a rebuild.
			hi += addr.VPN(p.EdgeWindow) + addr.VPN(1+rng.Intn(1<<12))
			insert(step, hi)
		}
		if d := ix.Depth(); d > p.DLimit {
			t.Fatalf("step %d: depth %d > DLimit %d", step, d, p.DLimit)
		}
		for k, e := range live {
			r := ix.Walk(k)
			walks++
			if r.Overflowed {
				overflowed++
			}
			if !r.Found || r.Entry != e {
				t.Fatalf("step %d: live %#x: found=%t entry %v, want %v", step, uint64(k), r.Found, r.Entry, e)
			}
			if !r.Overflowed && r.PTEAccesses > 1+2*p.CErr {
				t.Fatalf("step %d: %#x took %d PTE accesses without overflowing, bound %d",
					step, uint64(k), r.PTEAccesses, 1+2*p.CErr)
			}
		}
		for _, k := range freed {
			if _, back := live[k]; !back && ix.Walk(k).Found {
				t.Fatalf("step %d: freed %#x still translates", step, uint64(k))
			}
		}
	}
	st := ix.Stats()
	t.Logf("retrains=%d rebuilds=%d edge=%d rescales=%d live=%d depth=%d; %d of %d live-key walks overflowed",
		st.Retrains, st.Rebuilds, st.EdgeExpansions, st.Rescales, len(live), ix.Depth(), overflowed, walks)
	if st.Retrains == 0 || st.Rebuilds == 0 {
		t.Fatalf("the sequence forced %d retrains and %d rebuilds; it must force both", st.Retrains, st.Rebuilds)
	}
	// The whole run is deterministic, so what it found is pinned: the
	// final index, every maintenance count, and how many live-key walks
	// needed the §4.3.3 overflow search. The overflow count is a ratchet:
	// a change that tightens the error bound lowers it here.
	want := IndexStats{Retrains: 70, Rebuilds: 6, InsertCollisions: 1386, Inserts: 2008, EdgeExpansions: 10,
		Rescales: 8, LazyTrains: 26, SearchOverflows: 470939, PeakIndexBytes: 9360}
	if st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	if overflowed != 470939 || walks != 2438903 {
		t.Errorf("%d of %d live-key walks overflowed, want 470939 of 2438903", overflowed, walks)
	}
	if got := IndexDigest(ix); got != 0xd255441475e11e70 {
		t.Errorf("IndexDigest %#x, want 0xd255441475e11e70", got)
	}
}
