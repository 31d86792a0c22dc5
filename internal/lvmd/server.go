package lvmd

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"lvm/internal/experiments/sched"
	"lvm/internal/wire"
	"lvm/internal/workload"
)

// Server is the daemon: an accept loop handing each connection one
// session, a build-once workload cache shared across tenants, and a
// two-stage admission pipeline — the sched.Admission byte semaphore
// (footprint cost model with EMA correction) decides how many tenants may
// hold machines, a worker-slot semaphore decides how many simulate at
// once.
type Server struct {
	cfg   Config
	fp    string
	adm   *sched.Admission
	slots chan struct{} // worker-slot semaphore (capacity cfg.Workers)
	quit  chan struct{} // closed by Close; cancels queued admissions

	mu       sync.Mutex
	ln       net.Listener        // guarded by mu
	sessions map[uint64]*session // guarded by mu
	nextID   uint64              // guarded by mu
	closing  bool                // guarded by mu

	wls *workload.Cache

	wg sync.WaitGroup
}

// session is one connection's server-side state. The handling goroutine
// owns the simulation; the read-loop goroutine only feeds trace chunks and
// turns client drops or kill frames into cancellation.
type session struct {
	w *wire.Conn[message]

	// traceCh delivers streamed trace chunks to the simulating goroutine.
	traceCh chan traceChunk
	// cancel is closed (once) on client drop, kill, bad frame, or daemon
	// shutdown.
	cancel     chan struct{}
	cancelOnce sync.Once
	// owed is the reason of the error frame an aborted session still owes
	// its client: set for a kill or a bad frame (the connection is still
	// healthy), nil for a drop or shutdown.
	owed atomic.Pointer[string]
}

// traceChunk is one inbound msgTrace frame, decoded.
type traceChunk struct {
	accesses []workload.Access
	done     bool
}

// reasonKilled is the error-frame reason of a killed session; the client
// maps it to ErrKilled.
const reasonKilled = "session killed"

// abort cancels the session. A non-empty reason is owed to the client as
// an error frame; the first one given wins.
func (s *session) abort(reason string) {
	if reason != "" {
		s.owed.CompareAndSwap(nil, &reason)
	}
	s.cancelOnce.Do(func() { close(s.cancel) })
}

// NewServer builds a daemon from cfg (zero fields resolved to defaults).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	fp, err := cfg.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		fp:       fp,
		adm:      sched.NewAdmission(cfg.MemBudgetBytes, sched.NewCostModel()),
		slots:    make(chan struct{}, cfg.Workers),
		quit:     make(chan struct{}),
		sessions: make(map[uint64]*session),
		wls:      workload.NewCache(cfg.Exp.Params),
	}, nil
}

// Serve accepts sessions on ln until Close. It blocks; the returned error
// is nil after a clean Close and the accept failure otherwise.
func (srv *Server) Serve(ln net.Listener) error {
	srv.mu.Lock()
	if srv.closing {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("lvmd: serve on a closed server")
	}
	srv.ln = ln
	srv.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			srv.mu.Lock()
			closing := srv.closing
			srv.mu.Unlock()
			if closing {
				return nil
			}
			return fmt.Errorf("lvmd: accept: %w", err)
		}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.handle(conn)
		}()
	}
}

// Close shuts the daemon down: the listener stops accepting, queued
// admissions abort, every open session is cancelled and its connection
// closed, and Close returns only when every handler goroutine has drained
// — callers observe zero leaked goroutines after it returns.
func (srv *Server) Close() {
	srv.mu.Lock()
	if srv.closing {
		srv.mu.Unlock()
		srv.wg.Wait()
		return
	}
	srv.closing = true
	if srv.ln != nil {
		srv.ln.Close()
	}
	// Snapshot in sorted ID order: teardown must not depend on map
	// iteration order any more than the simulation paths do.
	ids := make([]uint64, 0, len(srv.sessions))
	for id := range srv.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	live := make([]*session, 0, len(ids))
	for _, id := range ids {
		live = append(live, srv.sessions[id])
	}
	srv.mu.Unlock()

	close(srv.quit)
	for _, s := range live {
		s.abort("")
		s.w.Close()
	}
	srv.wg.Wait()
}

// register allocates a session identity; unregister retires it.
func (srv *Server) register(w *wire.Conn[message]) (uint64, *session) {
	srv.mu.Lock()
	srv.nextID++
	id := srv.nextID
	s := &session{
		w:       w,
		traceCh: make(chan traceChunk, 4),
		cancel:  make(chan struct{}),
	}
	srv.sessions[id] = s
	srv.mu.Unlock()
	return id, s
}

func (srv *Server) unregister(id uint64) {
	srv.mu.Lock()
	delete(srv.sessions, id)
	srv.mu.Unlock()
}

// vetHello refuses a client whose protocol, stream schema or config
// fingerprint differs from the daemon's: it is speaking about a different
// machine.
func (srv *Server) vetHello(m message) string {
	if m.Type != msgHello {
		return fmt.Sprintf("expected hello, got %q", m.Type)
	}
	return m.Vet(hello(srv.fp).Hello)
}

// handle runs one connection's lifecycle end to end: handshake, open,
// admission, simulation, teardown. It owns the connection; the read loop
// it spawns only feeds it.
func (srv *Server) handle(conn net.Conn) {
	w := wire.New[message](conn)
	defer w.Close()
	h, err := w.Recv()
	if err != nil {
		return
	}
	if reason := srv.vetHello(h); reason != "" {
		w.Send(message{Type: msgReject, Reason: reason})
		return
	}
	if err := w.Send(message{Type: msgWelcome, Workers: srv.cfg.Workers, BudgetBytes: srv.cfg.MemBudgetBytes}); err != nil {
		return
	}
	m, err := w.Recv()
	if err != nil {
		return
	}
	if m.Type != msgOpen || m.Open == nil {
		w.Send(message{Type: msgError, Reason: fmt.Sprintf("expected open, got %q", m.Type)})
		return
	}
	open := *m.Open
	if open.Stream && open.Warmup > 0 {
		w.Send(message{Type: msgError, Reason: "warmup is not supported for stream sessions"})
		return
	}

	wl, err := srv.wls.Get(open.Workload)
	if err != nil {
		w.Send(message{Type: msgError, Reason: err.Error()})
		return
	}

	id, s := srv.register(w)
	defer srv.unregister(id)
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		srv.readLoop(s)
	}()

	// Cancellation covers both the client (drop/kill via s.cancel) and the
	// daemon (Close via quit); fold them into the one channel Acquire and
	// the drive loop watch.
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		select {
		case <-srv.quit:
			s.abort("")
		case <-s.cancel:
		}
	}()

	// Stage 1: memory admission. The charge is the sweep scheduler's exact
	// footprint formula, EMA-corrected by what completed sessions actually
	// cost; a cancelled wait charges nothing.
	cost := srv.cfg.Exp.RunCostBytes(wl.FootprintBytes())
	charge, ok := srv.adm.Acquire(cost, s.cancel)
	if !ok {
		srv.sendAborted(s)
		return
	}
	defer srv.adm.Release(charge)

	// Stage 2: a worker slot bounds concurrent simulation.
	select {
	case srv.slots <- struct{}{}:
	case <-s.cancel:
		srv.sendAborted(s)
		return
	}
	defer func() { <-srv.slots }()

	if err := w.Send(message{Type: msgAdmitted, ChargeBytes: charge, QueueDepth: srv.adm.Stats().QueueDepth}); err != nil {
		return
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runErr := srv.runSession(s, wl, open)
	runtime.ReadMemStats(&after)
	srv.adm.Observe(cost, sched.MemSample{
		AllocBytes:     after.TotalAlloc - before.TotalAlloc,
		HeapInuseBytes: after.HeapInuse,
	})
	if runErr != nil && !errors.Is(runErr, errAborted) {
		w.Send(message{Type: msgError, Reason: runErr.Error()})
	}
}

// readLoop drains the client's frames: trace chunks feed the simulating
// goroutine; a kill frame, a malformed trace frame or connection loss
// cancels the session. It exits when the connection dies — handle's
// deferred close guarantees that.
func (srv *Server) readLoop(s *session) {
	for {
		m, err := s.w.Recv()
		if err != nil {
			s.abort("")
			return
		}
		switch m.Type {
		case msgTrace:
			accesses, err := unpackTrace(m.Count, m.Trace)
			if err != nil {
				s.abort(err.Error())
				return
			}
			select {
			case s.traceCh <- traceChunk{accesses: accesses, done: m.Done}:
			case <-s.cancel:
				return
			}
			if m.Done {
				return
			}
		case msgKill:
			s.abort(reasonKilled)
			return
		}
	}
}

// sendAborted sends a session aborted by a kill or a bad frame the error
// frame it is owed; dropped clients get nothing (the connection is gone).
func (srv *Server) sendAborted(s *session) {
	if r := s.owed.Load(); r != nil {
		s.w.Send(message{Type: msgError, Reason: *r})
	}
}

// errAborted marks a session cancelled mid-simulation.
var errAborted = errors.New("lvmd: session aborted")
