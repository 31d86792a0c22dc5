package main

import (
	"errors"
	"fmt"
	"runtime"

	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/oskernel"
	"lvm/internal/pte"
	"lvm/internal/tlb"
	"lvm/internal/vas"
	"lvm/internal/wallclock"
	"lvm/internal/workload"
)

// churnEvery is the access period of churn's management burst.
const churnEvery = 512

// churnPass runs every cell through CPU.RunTail, reps times on one
// machine, with a hook that issues a page-table burst every churnEvery
// accesses.
func churnPass(b *bench, wd *workloadDef, seed int64, ps *passStats) error {
	wls, err := b.buildAll(wd.cells, seed, ps)
	if err != nil {
		return err
	}
	for _, c := range wd.cells {
		b.churnCell(c, wls[c.Workload], seed, wd.reps, ps)
		runtime.GC()
	}
	return nil
}

func (b *bench) churnCell(c cellSpec, w *workload.Workload, seed int64, reps int, ps *passStats) {
	traced := ps.traced
	scheme := string(c.Scheme)
	t := wallclock.Start()
	sys, p, cpu, err := quickConfig(seed, c.TraceLen).NewRunMachine(w, c.Scheme, c.THP)
	launch := t.Seconds()
	if err != nil {
		b.chk.fail(c.key(), err)
		return
	}
	b.l.sample("oskernel.launch_s."+scheme, launch)
	ps.setupS += launch
	t = wallclock.Start()
	ch, err := newChurner(sys, p, cpu.TLBs(), w.Space, scheme)
	if err != nil {
		b.chk.fail(c.key(), err)
		return
	}
	ps.setupS += t.Seconds()
	b.settle(ps)
	// Traced, the hook also cuts a metric window every windowEvery
	// accesses; its time, like the bursts', is kept out of sim.step_ns.
	var l *ledger
	var prev metrics.Set
	var windowS float64
	var laps []float64
	if traced {
		l = b.l
		prev = cpu.Snapshot()
	}
	hook := func(i int) float64 {
		if traced && i > 0 && i%windowEvery == 0 {
			var s float64
			prev, s = b.cutWindow(cpu, prev)
			windowS += s
		}
		if i%churnEvery != churnEvery-1 {
			return 0
		}
		if (i+1)%chunkLen == 0 {
			laps = append(laps, t.Seconds()-windowS)
		}
		return ch.burst(l)
	}
	for r := 0; r < reps; r++ {
		ops, failed, opsS, mgmt := ch.ops, ch.failed, ch.seconds, ch.mgmt
		windowS, laps = 0, nil
		t = wallclock.Start()
		res, _ := cpu.RunTail(1, w, hook)
		tail := t.Seconds()
		chunks := chunksOf(laps, tail-windowS)
		// The translation loop's own time leaves out the bursts and window
		// cuts; the timed region keeps the bursts, which churn exists to
		// measure.
		loop := tail - (ch.seconds - opsS) - windowS
		b.l.add("sim.step_ns."+scheme, loop*1e9, float64(res.Accesses))
		ps.timed(float64(res.Accesses), chunks)
		ps.latencies = append(ps.latencies, chunks)
		ps.mgmtOps += float64(ch.ops - ops)
		ps.mgmtS += ch.seconds - opsS
		ps.simCycles += res.Cycles
		ps.simAccesses += float64(res.Accesses)
		b.chk.ops(ch.ops-ops, ch.failed-failed)
		extra := map[string]float64{"churn.ops": float64(ch.ops - ops), "churn.mgmt_cycles": float64(ch.mgmt - mgmt)}
		b.checkResult(c, r, seed, res.Metrics, extra, uint64(len(w.Accesses)))
	}
}

// churner issues deterministic page-table bursts against one process: a
// fault-check lookup and a map for heap growth past the trained span, an
// unmap and re-map inside the span, and a dirty-bit protect toggle. Each
// changed translation is shot down from the TLBs, as an OS would.
type churner struct {
	sys    *oskernel.System
	p      *oskernel.Process
	tlbs   *tlb.Hierarchy
	scheme string

	grow, growEnd   addr.VPN // next growth page; first page not free
	remap           addr.VPN // next page to unmap and re-map
	heapLo, heapEnd addr.VPN
	protect         addr.VPN // page whose dirty bit the toggle flips
	bursts          int

	lastMgmt, mgmt uint64 // management cycles charged, and their total
	ops, failed    int
	seconds        float64 // host time in bursts
}

func newChurner(sys *oskernel.System, p *oskernel.Process, tlbs *tlb.Hierarchy, space *vas.AddressSpace, scheme string) (*churner, error) {
	var heap *vas.Region
	for i := range space.Regions {
		if space.Regions[i].Kind == vas.Heap {
			heap = &space.Regions[i]
		}
	}
	if heap == nil {
		return nil, errors.New("churn: no heap region")
	}
	end := heap.Base + addr.VPN(heap.Span)
	growEnd := ^addr.VPN(0)
	for _, r := range space.Regions {
		if r.Base >= end && r.Base < growEnd {
			growEnd = r.Base
		}
	}
	c := &churner{
		sys: sys, p: p, tlbs: tlbs, scheme: scheme,
		grow: end + 1, growEnd: growEnd,
		remap: heap.Base, heapLo: heap.Base, heapEnd: end,
	}
	// The first page past the trained span makes LVM rebuild its index
	// (100-300 ms on mem$), once per process. It is mapped here, as set-up,
	// so the bursts measure steady growth.
	if err := sys.MapPage(1, end, addr.Page4K); err != nil {
		return nil, fmt.Errorf("churn: first growth page: %w", err)
	}
	c.lastMgmt = p.MgmtCycles
	return c, nil
}

// burst runs one management burst and returns the management cycles it
// charged. A non-nil ledger receives each operation's host time.
func (c *churner) burst(l *ledger) float64 {
	start := wallclock.Start()
	if c.grow >= c.growEnd {
		c.note(l, "map_us", start, fmt.Errorf("growth reached the next region at %#x", uint64(c.growEnd)))
		return 0
	}
	v := c.grow
	c.grow++
	t := wallclock.Start()
	_, mapped := c.sys.SoftwareLookup(1, v)
	c.note(l, "fault_lookup_us", t, boolErr(!mapped, "growth page already mapped"))
	t = wallclock.Start()
	c.note(l, "map_us", t, c.sys.MapPage(1, v, addr.Page4K))

	// The remap keeps the page's size: under THP the heap is mostly 2 MB
	// pages, unmapped and re-mapped whole.
	r, size := c.remap, addr.Page4K
	if c.p.THP {
		if e, ok := c.sys.SoftwareLookup(1, r); ok {
			size = e.Size()
		}
	}
	if c.remap += addr.VPN(size.BaseVPNs()); c.remap >= c.heapEnd {
		c.remap = c.heapLo
	}
	t = wallclock.Start()
	c.note(l, "unmap_us", t, boolErr(c.sys.UnmapPage(1, r), "unmap of a mapped page failed"))
	c.tlbs.Shootdown(1, r)
	t = wallclock.Start()
	c.note(l, "map_us", t, c.sys.MapPage(1, r, size))

	var set, clear pte.Entry
	if c.bursts%2 == 0 {
		c.protect, set = r, pte.FlagDirty
	} else {
		clear = pte.FlagDirty
	}
	c.bursts++
	t = wallclock.Start()
	c.note(l, "protect_us", t, boolErr(c.sys.Protect(1, c.protect, set, clear), "protect of a mapped page failed"))
	c.tlbs.Shootdown(1, c.protect)

	c.seconds += start.Seconds()
	d := c.p.MgmtCycles - c.lastMgmt
	c.lastMgmt = c.p.MgmtCycles
	c.mgmt += d
	return float64(d)
}

// note counts one operation that started at t and, with a ledger, charges
// its host time.
func (c *churner) note(l *ledger, name string, t wallclock.Stopwatch, err error) {
	us := sinceNs(t) / 1e3
	c.ops++
	if err != nil {
		c.failed++
	}
	if l != nil {
		l.add("oskernel."+name+"."+c.scheme, us, 1)
	}
}

func boolErr(ok bool, msg string) error {
	if ok {
		return nil
	}
	return errors.New(msg)
}
