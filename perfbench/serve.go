package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"lvm/internal/lvmd"
	"lvm/internal/oskernel"
	"lvm/internal/wallclock"
	"lvm/internal/workload"
)

const (
	// clients is the number of closed-loop client connections.
	clients = 2
	// servePerClient is the sessions each client runs in one serve pass:
	// four rounds and two sessions of the twelve-session cycle, so a pass
	// has 100 sessions and ten lie beyond p90.
	servePerClient = 50
	// probePerClient is the sessions per client of the lvmd probe other
	// workloads' traced runs make.
	probePerClient = 4
)

// serveCombos is the serve mix: every workload of the quick roster on
// LVM and radix.
var serveCombos = []combo{
	{"bfs", oskernel.SchemeLVM, false}, {"bfs", oskernel.SchemeRadix, false},
	{"gups", oskernel.SchemeLVM, false}, {"gups", oskernel.SchemeRadix, false},
	{"mem$", oskernel.SchemeLVM, false}, {"mem$", oskernel.SchemeRadix, false},
}

// combo is one tenant configuration.
type combo struct {
	Workload string
	Scheme   oskernel.Scheme
	THP      bool
}

// servePass runs one closed-loop serve load over the serve mix.
func servePass(b *bench, _ *workloadDef, seed int64, ps *passStats) error {
	return b.serveLoad(quickLen, seed, serveCombos, servePerClient, ps)
}

// sessionOut is what one client observed of one session.
type sessionOut struct {
	combo  combo
	stream bool
	err    error
	res    *lvmd.ResultDoc
	// windows counts interval frames; gaps are the host seconds between
	// consecutive ones (traced only).
	windows int
	gaps    []float64
	// dialS, admitS and latencyS are host seconds from the dial to the
	// handshake, to admission (traced only) and to the result.
	dialS, admitS, latencyS float64
	// sendS is the host time the client spent in Send (traced streams).
	sendS float64
}

// serveLoad starts an in-process lvmd server over the quick configuration
// at seed, builds the combos' workloads client-side (stream sessions send
// their traces), and runs the closed loop: each client opens its next
// session only when the previous result has arrived. Clients cycle through
// the combos, each combo once replayed daemon-side and once streamed.
// Sessions are traced when ps is.
func (b *bench) serveLoad(traceLen int, seed int64, combos []combo, perClient int, ps *passStats) error {
	cfg := lvmd.Quick()
	cfg.Exp.Params.Seed = seed
	cfg.Exp.Params.TraceLen = traceLen
	cfg.Workers = clients

	t := wallclock.Start()
	srv, err := lvmd.NewServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != nil {
			b.chk.fail("lvmd serve", err)
		}
	}()
	ps.setupS += t.Seconds()
	cells := make([]cellSpec, len(combos))
	for i, c := range combos {
		cells[i] = cellSpec{Workload: c.Workload, TraceLen: traceLen}
	}
	wls, err := b.buildAll(cells, seed, ps)
	if err != nil {
		return err
	}

	addr := ln.Addr().String()
	outs := make([][]sessionOut, clients)
	var wg sync.WaitGroup
	t = wallclock.Start()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				j := k + c*len(combos)
				cb := combos[(j/2)%len(combos)]
				outs[c] = append(outs[c], runSession(addr, cfg, cb, j%2 == 1, wls[cb.Workload].Accesses, ps.traced))
			}
		}(c)
	}
	wg.Wait()
	loop := t.Seconds()
	b.settle(ps)

	var acc float64
	for _, cs := range outs {
		for _, o := range cs {
			acc += b.noteSession(o, seed, traceLen, len(wls[o.combo.Workload].Accesses), ps)
		}
	}
	ps.timed(acc, []float64{loop})
	return nil
}

// noteSession checks one session's outcome, charges its observations and
// returns the accesses it simulated.
func (b *bench) noteSession(o sessionOut, seed int64, traceLen, n int, ps *passStats) float64 {
	key := cellSpec{Workload: o.combo.Workload, Scheme: o.combo.Scheme, THP: o.combo.THP, TraceLen: traceLen}.key()
	if o.err != nil {
		b.chk.fail(key, o.err)
		return 0
	}
	wantWindows := (n + windowEvery - 1) / windowEvery
	if o.windows != wantWindows {
		b.chk.fail(key, fmt.Errorf("%d interval windows, want %d", o.windows, wantWindows))
		return 0
	}
	var doc struct{ Metrics json.RawMessage }
	if err := json.Unmarshal(o.res.Sim, &doc); err != nil {
		b.chk.fail(key, err)
		return 0
	}
	d, _, err := digestOf(doc.Metrics, nil)
	if err != nil {
		b.chk.fail(key, err)
		return 0
	}
	b.chk.outcome(key, seed, d, uint64(n))

	ps.latencies = append(ps.latencies, []float64{o.latencyS})
	ps.simCycles += o.res.Cycles
	ps.simAccesses += float64(o.res.Accesses)
	kind := "replay"
	if o.stream {
		kind = "stream"
	}
	b.l.sample("lvmd.session_ms."+kind, o.latencyS*1e3)
	b.l.sample("lvmd.dial_ms", o.dialS*1e3)
	if o.admitS > 0 {
		b.l.sample("lvmd.admit_ms", o.admitS*1e3)
	}
	if o.stream && o.sendS > 0 {
		b.l.add("lvmd.send_ns_per_access", o.sendS*1e9, float64(n))
	}
	for _, g := range o.gaps {
		b.l.sample("lvmd.interval_gap_ms", g*1e3)
	}
	return float64(o.res.Accesses)
}

// runSession runs one tenant session on its own connection, from dial to
// result. Untraced it uses Client.Run and Client.RunStream; traced it
// drives the same exchange through Open, Send, WaitAdmitted and Wait so
// admission and send time are visible.
func runSession(addr string, cfg lvmd.Config, cb combo, stream bool, trace []workload.Access, traced bool) sessionOut {
	o := sessionOut{combo: cb, stream: stream}
	open := lvmd.OpenRequest{Workload: cb.Workload, Scheme: cb.Scheme, THP: cb.THP, Every: windowEvery}
	start := wallclock.Start()
	c, err := lvmd.Dial(addr, cfg)
	if err != nil {
		o.err = err
		return o
	}
	defer c.Close()
	o.dialS = start.Seconds()
	var last *wallclock.Stopwatch
	onInterval := func(lvmd.IntervalDoc) {
		o.windows++
		if traced {
			if last != nil {
				o.gaps = append(o.gaps, last.Seconds())
			}
			sw := wallclock.Start()
			last = &sw
		}
	}
	switch {
	case traced:
		o.res, o.err = tracedSession(c, open, stream, trace, onInterval, &o)
	case stream:
		o.res, _, o.err = c.RunStream(open, trace, windowEvery, onInterval)
	default:
		o.res, _, o.err = c.Run(open, onInterval)
	}
	o.latencyS = start.Seconds()
	if o.err == nil && o.res == nil {
		o.err = errors.New("no result")
	}
	return o
}

// tracedSession is Client.Run or Client.RunStream spelled out, with the
// admission wait and every Send timed.
func tracedSession(c *lvmd.Client, open lvmd.OpenRequest, stream bool, trace []workload.Access, onInterval func(lvmd.IntervalDoc), o *sessionOut) (*lvmd.ResultDoc, error) {
	open.Stream = stream
	t := wallclock.Start()
	if err := c.Open(open); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	var sendS float64
	if stream {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(trace); i += windowEvery {
				end := min(i+windowEvery, len(trace))
				ts := wallclock.Start()
				// A failed send means the session is over; Wait reports why.
				if err := c.Send(trace[i:end], end == len(trace)); err != nil {
					return
				}
				sendS += ts.Seconds()
			}
		}()
	}
	_, err := c.WaitAdmitted()
	o.admitS = t.Seconds()
	var res *lvmd.ResultDoc
	if err == nil {
		res, _, err = c.Wait(onInterval)
	}
	if err != nil {
		c.Close() // unblocks a sender stuck on a dead session
	}
	wg.Wait()
	o.sendS = sendS
	return res, err
}
