package oskernel

import (
	"bytes"
	"encoding/json"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/workload"
)

// lookupProbeVPNs returns every distinct VPN of the trace, a stride through
// each region's reserved span (holes included), and VPNs past every region
// and far outside the address space — mapped and unmapped pages alike.
func lookupProbeVPNs(w *workload.Workload) []addr.VPN {
	seen := map[addr.VPN]bool{}
	var vpns []addr.VPN
	add := func(v addr.VPN) {
		if !seen[v] {
			seen[v] = true
			vpns = append(vpns, v)
		}
	}
	for _, a := range w.Accesses {
		add(addr.VPNOf(a.VA))
	}
	for _, r := range w.Space.Regions {
		for i := 0; i < r.Span; i += 97 {
			add(r.Base + addr.VPN(i))
		}
		for i := 0; i < 8; i++ {
			add(r.Base + addr.VPN(r.Span+i*513))
		}
	}
	for i := 0; i < 8; i++ {
		add(addr.VPN(1<<34 + i*4099))
	}
	return vpns
}

// snapshotJSON is the walker's metric snapshot as bytes, for byte-identity
// comparison.
func snapshotJSON(t *testing.T, src metrics.Source) []byte {
	t.Helper()
	b, err := json.Marshal(src.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLookupMatchesWalk pins the mmu.Lookuper contract on every scheme,
// with 4K pages and with THP: Lookup is a pure functional resolve. It must
// agree with Walk's Entry/Found on every trace VPN and on unmapped VPNs,
// and a Lookup sweep must leave the walker's snapshot (walk caches, store
// and speculation counters) byte-identical — both on a cold walker and
// after Walk has warmed it.
func TestLookupMatchesWalk(t *testing.T) {
	p := workload.QuickParams()
	p.GUPSTableBytes = 8 << 20
	p.TraceLen = 5_000
	w, err := workload.Build("gups", p)
	if err != nil {
		t.Fatal(err)
	}
	vpns := lookupProbeVPNs(w)
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			name := string(scheme) + "/4k"
			if thp {
				name = string(scheme) + "/thp"
			}
			t.Run(name, func(t *testing.T) {
				sys := NewSystem(phys.New(1<<30), scheme)
				if _, err := sys.Launch(1, w.Space, thp); err != nil {
					t.Fatalf("launch: %v", err)
				}
				wk := sys.Walker()
				lk, ok := wk.(mmu.Lookuper)
				if !ok {
					t.Fatalf("%T does not implement mmu.Lookuper", wk)
				}
				src, ok := wk.(metrics.Source)
				if !ok {
					t.Fatalf("%T does not implement metrics.Source", wk)
				}
				sweep := func(phase string) []pte.Entry {
					before := snapshotJSON(t, src)
					got := make([]pte.Entry, len(vpns))
					for i, v := range vpns {
						if e, found := lk.Lookup(1, v); found {
							got[i] = e
						}
					}
					if after := snapshotJSON(t, src); !bytes.Equal(before, after) {
						t.Errorf("%s Lookup sweep changed the walker snapshot:\nbefore %s\nafter  %s",
							phase, before, after)
					}
					return got
				}
				cold := sweep("cold")
				mapped := 0
				for i, v := range vpns {
					out := wk.Walk(1, v)
					want := pte.Entry(0)
					if out.Found {
						want = out.Entry
						mapped++
					}
					if cold[i] != want {
						t.Fatalf("vpn %#x: Lookup %v, Walk %v (found %t)", uint64(v), cold[i], out.Entry, out.Found)
					}
				}
				if mapped == 0 || mapped == len(vpns) {
					t.Fatalf("%d of %d probe VPNs mapped: want both mapped and unmapped pages", mapped, len(vpns))
				}
				for i, e := range sweep("warm") {
					if e != cold[i] {
						t.Fatalf("vpn %#x: warm Lookup %v, cold %v", uint64(vpns[i]), e, cold[i])
					}
				}
			})
		}
	}
}
