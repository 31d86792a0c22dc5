package main

import (
	"errors"
	"runtime"

	"lvm/internal/addr"
	"lvm/internal/cache"
	"lvm/internal/dram"
	"lvm/internal/mmu"
	"lvm/internal/oskernel"
	"lvm/internal/pte"
	"lvm/internal/sim"
	"lvm/internal/tlb"
	"lvm/internal/wallclock"
	"lvm/internal/workload"
)

// osProbeBursts is the number of churn bursts the ledger issues on each
// cell's second machine for workloads that do not churn themselves.
const osProbeBursts = 64

// ledgerExtras prices the layers of the workload's cells at the run's
// seed, after pass 0: each cell is replayed layer by layer on a second
// machine built from the same inputs, and workloads that do not reach lvmd
// on their own open a small traced lvmd load over the same workloads.
func (b *bench) ledgerExtras(wd *workloadDef) error {
	wls, err := b.buildAll(wd.cells, b.seed, nil)
	if err != nil {
		return err
	}
	for _, c := range wd.cells {
		w := wls[c.Workload]
		if wd.serve {
			b.replayCell(c, w, b.seed, 1, &passStats{traced: true})
		}
		if err := b.ledgerCell(c, w, !wd.churn); err != nil {
			b.chk.fail(c.key()+" ledger", err)
		}
		runtime.GC()
	}
	if wd.serve {
		return nil
	}
	var combos []combo
	for _, c := range wd.cells {
		if c.Scheme == oskernel.SchemeLVM || c.Scheme == oskernel.SchemeRadix {
			combos = append(combos, combo{c.Workload, c.Scheme, c.THP})
		}
	}
	return b.serveLoad(wd.cells[0].TraceLen, b.seed, combos, probePerClient, &passStats{traced: true})
}

// paRef is one cache request of the replayed stream.
type paRef struct {
	pa   addr.PA
	walk bool
}

// ledgerCell replays one cell's inputs through each layer in isolation on
// a fresh machine: the TLB hierarchy over the access stream, the walker
// over the stream's L2 TLB misses, the cache hierarchy over the data and
// walk requests in simulated order, DRAM over the requests that reached
// memory, then (probeOS) a run of churn bursts and, for cells that start
// cold, a priced FastForward.
func (b *bench) ledgerCell(c cellSpec, w *workload.Workload, probeOS bool) error {
	scheme := string(c.Scheme)
	cfg := quickConfig(b.seed, c.TraceLen)
	t := wallclock.Start()
	sys, p, cpu, err := cfg.NewRunMachine(w, c.Scheme, c.THP)
	if err != nil {
		return err
	}
	b.l.sample("oskernel.launch_s."+scheme, t.Seconds())
	sc := cfg.Sim

	// The translation of every access, from the OS's own walk (which leaves
	// the hardware walker's state untouched).
	entries := make([]pte.Entry, len(w.Accesses))
	known := map[addr.VPN]pte.Entry{}
	for i, a := range w.Accesses {
		v := addr.VPNOf(a.VA)
		e, ok := known[v]
		if !ok {
			e, _ = sys.SoftwareLookup(1, v)
			known[v] = e
		}
		entries[i] = e
	}

	// TLB: probe every access, fill on an L2 miss.
	h := tlb.NewHierarchySized(sc.TLBL1Small, sc.TLBL1Huge, sc.TLBL2, sc.TLBL2Huge)
	var misses []int32
	var lookNs, fillNs, fills float64
	for i, a := range w.Accesses {
		v := addr.VPNOf(a.VA)
		t := wallclock.Start()
		_, hit := h.Lookup(1, v)
		lookNs += sinceNs(t)
		if hit {
			continue
		}
		misses = append(misses, int32(i))
		if entries[i] == 0 {
			continue
		}
		t = wallclock.Start()
		h.Fill(1, v, entries[i])
		fillNs += sinceNs(t)
		fills++
	}
	b.l.add("tlb.lookup_ns", lookNs, float64(len(w.Accesses)))
	b.l.add("tlb.fill_ns", fillNs, fills)

	// Walker: the pipeline's Lookup then WalkBatch per batch-sized chunk of
	// accesses, as sim.CPU issues them, recording each walk's requests;
	// then the scalar Walk over the same misses.
	wk := sys.Walker()
	lk, okL := wk.(mmu.Lookuper)
	bw, okB := wk.(mmu.BatchWalker)
	if !okL || !okB {
		return errors.New("walker lacks the batch seam")
	}
	vpns := make([]addr.VPN, len(misses))
	for k, i := range misses {
		vpns[k] = addr.VPNOf(w.Accesses[i].VA)
	}
	var bufs mmu.WalkBatchBuf
	var walkPAs []addr.PA
	walkOff := make([]int32, len(misses)+1)
	var lookupNs, batchNs float64
	for lo := 0; lo < len(misses); {
		hi := lo
		for hi < len(misses) && misses[hi]/sim.DefaultBatchSize == misses[lo]/sim.DefaultBatchSize {
			hi++
		}
		t := wallclock.Start()
		for _, v := range vpns[lo:hi] {
			lk.Lookup(1, v)
		}
		lookupNs += sinceNs(t)
		t = wallclock.Start()
		bw.WalkBatch(1, vpns[lo:hi], &bufs)
		batchNs += sinceNs(t)
		for k := lo; k < hi; k++ {
			out := bufs.Outcome(k - lo)
			for g := 0; g < out.NumGroups(); g++ {
				walkPAs = append(walkPAs, out.Group(g)...)
			}
			walkOff[k+1] = int32(len(walkPAs))
		}
		lo = hi
	}
	t = wallclock.Start()
	for _, v := range vpns {
		wk.Walk(1, v)
	}
	walkNs := sinceNs(t)
	n := float64(len(vpns))
	b.l.add("walker."+scheme+".lookup_ns", lookupNs, n)
	b.l.add("walker."+scheme+".walkbatch_ns", batchNs, n)
	b.l.add("walker."+scheme+".walk_ns", walkNs, n)

	// Cache hierarchy: each walk's requests, then the data access, in
	// access order; every request is binned by the level that served it.
	stream := make([]paRef, 0, len(w.Accesses)+len(walkPAs))
	m := 0
	for i, a := range w.Accesses {
		if m < len(misses) && int(misses[m]) == i {
			for _, pa := range walkPAs[walkOff[m]:walkOff[m+1]] {
				stream = append(stream, paRef{pa, true})
			}
			m++
		}
		if e := entries[i]; e != 0 {
			stream = append(stream, paRef{addr.Translate(a.VA, e.PPN(), e.Size()), false})
		}
	}
	hc := cache.New(sc.Cache, dram.New(sc.DRAM))
	var levelNs, levelN [4]float64
	var memPAs []addr.PA
	for _, r := range stream {
		t := wallclock.Start()
		lat := hc.Access(r.pa, r.walk)
		d := sinceNs(t)
		lv := servedLevel(sc.Cache, lat)
		levelNs[lv] += d
		levelN[lv]++
		if lv == 3 {
			memPAs = append(memPAs, r.pa)
		}
	}
	for i, lv := range cacheLevels {
		b.l.add("cache.access_ns."+lv, levelNs[i], levelN[i])
	}
	dm := dram.New(sc.DRAM)
	t = wallclock.Start()
	for _, pa := range memPAs {
		dm.Access(pa)
	}
	b.l.add("dram.access_ns", sinceNs(t), float64(len(memPAs)))

	if probeOS {
		ch, err := newChurner(sys, p, cpu.TLBs(), w.Space, scheme)
		if err != nil {
			return err
		}
		for k := 0; k < osProbeBursts; k++ {
			ch.burst(b.l)
		}
		b.chk.ops(ch.ops, ch.failed)
	}
	if c.Warm == 0 {
		t := wallclock.Start()
		n := cpu.FastForward(1, w, warmPrefix)
		b.l.add("sim.fastforward_ns", sinceNs(t), float64(n))
	}
	return nil
}

// servedLevel maps a cache access latency to the level that served it:
// 0-2 for L1-L3, 3 for memory.
func servedLevel(c cache.Config, lat int) int {
	switch lat {
	case c.L1.LatencyCycles:
		return 0
	case c.L2.LatencyCycles:
		return 1
	case c.L3.LatencyCycles:
		return 2
	}
	return 3
}
