package orch

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lvm/internal/experiments"
	"lvm/internal/wire"
)

// Options bounds a coordinator.
type Options struct {
	// Cache, when non-nil, is consulted before dispatching anything (hits
	// install without simulating, exactly like ExecuteRuns) and receives
	// every completed run as it arrives, so an interrupted sweep resumes
	// re-simulating nothing.
	Cache *experiments.RunCache
	// MaxAttempts bounds executions per run, counting worker crashes
	// (0 means 3).
	MaxAttempts int
	// RetryBackoff is the base cooldown before a failed run is
	// redispatched; it doubles per attempt, capped at 8× (0 means 200ms).
	// Crash requeues skip the cooldown — the run was not at fault.
	RetryBackoff time.Duration
}

// ErrRetriesExhausted marks a sweep failure caused by one run failing on
// every allowed attempt; the wrapping error names the RunKey.
var ErrRetriesExhausted = errors.New("orch: run failed on every attempt")

// runState tracks one plan run through dispatch, steals, and retries.
// All fields are guarded by coordinator.mu.
type runState struct {
	key  experiments.RunKey
	cost uint64 // EstimateCosts footprint charge
	// done marks the first accepted completion; later copies are discarded.
	done bool
	// cooling marks a failed run waiting out its retry backoff.
	cooling    bool
	attempts   int
	lastWorker string
	// inFlight lists the workers currently executing a copy of this run
	// (more than one after a steal).
	inFlight []*workerConn
}

// workerConn is one registered worker. All fields are guarded by
// coordinator.mu except name/remote/capacity/budget/w, which are set once
// at registration.
type workerConn struct {
	name     string
	remote   string
	w        *wire.Conn[message]
	capacity int
	budget   uint64
	used     uint64 // summed charges of running
	running  []*runState
	gone     bool
}

type coordinator struct {
	r    *experiments.Runner
	opt  Options
	fp   string
	sink experiments.Sink

	mu       sync.Mutex
	cond     *sync.Cond  // signals finished; uses mu
	states   []*runState // plan order; guarded by mu
	byKey    map[experiments.RunKey]*runState
	workers  []*workerConn // guarded by mu
	nextName int           // guarded by mu
	// remaining counts runs not yet done; 0 finishes the sweep.
	remaining int  // guarded by mu
	finished  bool // guarded by mu
	err       error
	wg        sync.WaitGroup
}

// Serve runs a sweep coordinator on ln until every run in p has an
// installed output (or a run exhausts its retries, or the cache fails).
// Workers connect with Worker.Run; their handshake is vetted against the
// runner's config fingerprint, the same identity that namespaces the run
// cache.
// On success the runner holds the complete run matrix — byte-identical to
// an unsharded ExecuteRuns — and the compute phase can proceed locally.
//
// Runs already in the runner or restorable from opt.Cache are installed
// up front; a fully warm plan returns before accepting a single
// connection, dispatching zero simulations.
func Serve(ln net.Listener, r *experiments.Runner, p experiments.Plan, opt Options) error {
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 3
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 200 * time.Millisecond
	}
	fp, err := r.Cfg.Fingerprint()
	if err != nil {
		return err
	}
	costs, err := r.EstimateCosts(p)
	if err != nil {
		return err
	}

	c := &coordinator{
		r: r, opt: opt, fp: fp,
		sink:  r.Sink(),
		byKey: make(map[experiments.RunKey]*runState, len(p.Runs)),
	}
	c.cond = sync.NewCond(&c.mu)
	for i, key := range p.Runs {
		done, err := r.RestoreRun(key, opt.Cache)
		if err != nil {
			return fmt.Errorf("orch: %w", err)
		}
		st := &runState{key: key, cost: costs[i], done: done}
		if !done {
			c.remaining++
		}
		c.states = append(c.states, st)
		c.byKey[key] = st
	}
	if c.remaining == 0 {
		// Fully warm: nothing to dispatch, no workers needed.
		return nil
	}

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.handle(conn)
			}()
		}
	}()

	c.mu.Lock()
	for !c.finished {
		c.cond.Wait()
	}
	err = c.err
	live := append([]*workerConn(nil), c.workers...)
	c.mu.Unlock()

	ln.Close()
	for _, wc := range live {
		if err == nil {
			// Best-effort: the frame lands before the close, so a healthy
			// worker drains it and exits cleanly.
			wc.w.Send(message{Type: msgShutdown})
		}
		wc.w.Close()
	}
	c.wg.Wait()
	return err
}

// handle runs one connection's lifecycle: handshake, then a read loop
// feeding results in. Install and cache writes happen on this goroutine,
// inside the coordinator's WaitGroup, so they are complete before Serve
// returns.
func (c *coordinator) handle(conn net.Conn) {
	w := wire.New[message](conn)
	defer w.Close()
	hello, err := w.Recv()
	if err != nil {
		return
	}
	if reason := c.vetHello(hello); reason != "" {
		w.Send(message{Type: msgReject, Reason: reason})
		return
	}
	wc := c.newWorkerConn(hello, w, conn)
	c.sink.Emit(experiments.Event{Kind: experiments.WorkerConnected,
		Worker: wc.name, Remote: wc.remote, Capacity: wc.capacity})
	// Welcome before joining, so Serve's shutdown never overtakes it.
	if err := w.Send(message{Type: msgWelcome, Worker: wc.name}); err != nil {
		c.unregister(wc, err)
		return
	}
	if joined, clean := c.join(wc); !joined {
		// The sweep finished while this worker connected, after Serve
		// took its list of live workers: wind it down the same way here.
		if clean {
			w.Send(message{Type: msgShutdown})
		}
		c.unregister(wc, nil)
		return
	}
	c.dispatch()
	for {
		m, err := w.Recv()
		if err != nil {
			c.unregister(wc, err)
			c.dispatch()
			return
		}
		if m.Type != msgResult || m.Key == nil {
			continue // unknown frames ignored for forward compatibility
		}
		c.onResult(wc, m)
	}
}

// vetHello refuses a worker whose protocol, run schema or config
// fingerprint differs from the coordinator's: it is computing a different
// sweep.
func (c *coordinator) vetHello(m message) string {
	if m.Type != msgHello {
		return fmt.Sprintf("expected hello, got %q", m.Type)
	}
	return m.Vet(wire.Hello{Proto: protocolVersion, SchemaVersion: experiments.RunJSONSchemaVersion, Fingerprint: c.fp})
}

func (c *coordinator) newWorkerConn(m message, w *wire.Conn[message], conn net.Conn) *workerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextName++
	wc := &workerConn{
		name:     fmt.Sprintf("w%d", c.nextName),
		remote:   conn.RemoteAddr().String(),
		w:        w,
		capacity: max(1, m.Capacity),
		budget:   m.BudgetBytes,
	}
	if m.Worker != "" {
		wc.remote = m.Worker
	}
	if wc.budget == 0 {
		wc.budget = experiments.DefaultMemBudgetBytes
	}
	return wc
}

// join adds wc to the live workers unless the sweep has already finished,
// in which case it also reports whether the sweep finished cleanly.
func (c *coordinator) join(wc *workerConn) (joined, clean bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return false, c.err == nil
	}
	c.workers = append(c.workers, wc)
	return true, false
}

// unregister removes a dead (or cleanly departing) worker and requeues its
// in-flight runs. A run whose last surviving copy was on this worker
// counts a crash attempt and becomes immediately redispatchable.
func (c *coordinator) unregister(wc *workerConn, cause error) {
	c.mu.Lock()
	if wc.gone {
		c.mu.Unlock()
		return
	}
	wc.gone = true
	for i, w := range c.workers {
		if w == wc {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			break
		}
	}
	for _, st := range wc.running {
		st.inFlight = removeConn(st.inFlight, wc)
		if !st.done && len(st.inFlight) == 0 {
			c.failLocked(st, wc.name, fmt.Errorf("worker %s disconnected: %v", wc.name, cause), true)
		}
	}
	wc.running = nil
	clean := c.finished && c.err == nil
	c.mu.Unlock()
	if clean {
		cause = nil // expected teardown after a completed sweep
	}
	c.sink.Emit(experiments.Event{Kind: experiments.WorkerGone, Worker: wc.name, Err: cause})
}

// dispatch hands out runs until no worker has both free capacity and an
// eligible run. Sends happen outside the lock; a failed send is left for
// that worker's read loop to observe and requeue.
func (c *coordinator) dispatch() {
	type send struct {
		wc    *workerConn
		key   experiments.RunKey
		steal bool
	}
	var sends []send
	c.mu.Lock()
	for !c.finished {
		progressed := false
		for _, wc := range c.workers {
			if wc.gone || len(wc.running) >= wc.capacity {
				continue
			}
			st, steal := c.pickLocked(wc)
			if st == nil {
				continue
			}
			st.inFlight = append(st.inFlight, wc)
			wc.running = append(wc.running, st)
			wc.used += min(st.cost, wc.budget)
			sends = append(sends, send{wc, st.key, steal})
			progressed = true
		}
		if !progressed {
			break
		}
	}
	c.mu.Unlock()
	for _, s := range sends {
		c.sink.Emit(experiments.Event{Kind: experiments.RunAssigned, Key: s.key, Worker: s.wc.name, Steal: s.steal})
		key := s.key
		s.wc.w.Send(message{Type: msgAssign, Key: &key})
	}
}

// pickLocked chooses wc's next run: the costliest pending run that fits
// its remaining memory budget (largest-first, the same LPT ordering
// AssignShards uses), preferring runs that have not already failed on this
// worker. With nothing pending it steals: the least-duplicated, costliest
// outstanding run wc is not already executing. Ties break toward plan
// order. An idle worker admits an over-budget run alone (charge clamped),
// mirroring sched's oversized-task rule.
func (c *coordinator) pickLocked(wc *workerConn) (st *runState, steal bool) {
	free := wc.budget - wc.used
	var best, rerun *runState
	for _, s := range c.states {
		if s.done || s.cooling || len(s.inFlight) > 0 {
			continue
		}
		if min(s.cost, wc.budget) > free {
			continue
		}
		if s.lastWorker == wc.name {
			// Retries prefer a different worker; keep as fallback.
			if rerun == nil || s.cost > rerun.cost {
				rerun = s
			}
			continue
		}
		if best == nil || s.cost > best.cost {
			best = s
		}
	}
	if best == nil {
		best = rerun
	}
	if best != nil {
		return best, false
	}
	for _, s := range c.states {
		if s.done || len(s.inFlight) == 0 {
			continue
		}
		if containsConn(s.inFlight, wc) {
			continue
		}
		if min(s.cost, wc.budget) > free {
			continue
		}
		if best == nil ||
			len(s.inFlight) < len(best.inFlight) ||
			(len(s.inFlight) == len(best.inFlight) && s.cost > best.cost) {
			best = s
		}
	}
	return best, best != nil
}

// onResult accepts one completion frame: the first success for a key wins
// and is installed + cached; later copies are discarded; failures count an
// attempt and cool down for redispatch.
func (c *coordinator) onResult(wc *workerConn, m message) {
	key := *m.Key
	var out *experiments.RunOutput
	var runErr error
	if m.Error != "" {
		runErr = errors.New(m.Error)
	} else if out, runErr = experiments.UnmarshalRunOutput(m.Output); runErr != nil {
		runErr = fmt.Errorf("decoding result from %s: %w", wc.name, runErr)
	}

	c.mu.Lock()
	st := c.byKey[key]
	if st == nil {
		c.mu.Unlock()
		return // a key outside the plan: ignore
	}
	st.inFlight = removeConn(st.inFlight, wc)
	wc.running = removeState(wc.running, st)
	wc.used -= min(st.cost, wc.budget)
	if st.done {
		c.mu.Unlock()
		c.sink.Emit(experiments.Event{Kind: experiments.RunDuplicate, Key: key, Worker: wc.name})
		c.dispatch()
		return
	}
	if runErr != nil {
		c.failLocked(st, wc.name, runErr, false)
		c.mu.Unlock()
		c.sink.Emit(experiments.Event{Kind: experiments.RunDone, Key: key, Seconds: m.HostSeconds, Err: runErr})
		c.dispatch()
		return
	}
	st.done = true
	st.lastWorker = wc.name
	c.remaining--
	last := c.remaining == 0
	c.mu.Unlock()

	out.HostSeconds = m.HostSeconds
	c.r.InstallRun(key, out)
	c.sink.Emit(experiments.Event{Kind: experiments.RunDone, Key: key, Seconds: m.HostSeconds})
	if c.opt.Cache != nil {
		if err := c.opt.Cache.Store(key, out); err != nil {
			c.finish(fmt.Errorf("orch: %w", err))
			return
		}
	}
	if last {
		c.finish(nil)
		return
	}
	c.dispatch()
}

// failLocked records a failed attempt on st. With attempts left the run
// cools down for a capped exponential backoff before redispatch (none for
// crash requeues — the run was not at fault); with the budget exhausted
// and no other copy still in flight, the sweep fails naming the run.
func (c *coordinator) failLocked(st *runState, worker string, cause error, crashed bool) {
	st.attempts++
	st.lastWorker = worker
	if st.attempts >= c.opt.MaxAttempts {
		if len(st.inFlight) == 0 {
			c.finishLocked(fmt.Errorf("orch: run %s: %w (%d attempts, last: %v)", st.key, ErrRetriesExhausted, st.attempts, cause))
		}
		return
	}
	c.sink.Emit(experiments.Event{Kind: experiments.RunRetry, Key: st.key,
		Attempt: st.attempts, MaxAttempts: c.opt.MaxAttempts, Reason: cause.Error()})
	if crashed {
		return // immediately redispatchable
	}
	backoff := c.opt.RetryBackoff << (st.attempts - 1)
	backoff = min(backoff, 8*c.opt.RetryBackoff)
	st.cooling = true
	time.AfterFunc(backoff, func() {
		c.mu.Lock()
		st.cooling = false
		fin := c.finished
		c.mu.Unlock()
		if !fin {
			c.dispatch()
		}
	})
}

func (c *coordinator) finishLocked(err error) {
	if c.finished {
		return
	}
	c.finished = true
	c.err = err
	c.cond.Broadcast()
}

func (c *coordinator) finish(err error) {
	c.mu.Lock()
	c.finishLocked(err)
	c.mu.Unlock()
}

func removeConn(s []*workerConn, wc *workerConn) []*workerConn {
	for i, w := range s {
		if w == wc {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func removeState(s []*runState, st *runState) []*runState {
	for i, x := range s {
		if x == st {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func containsConn(s []*workerConn, wc *workerConn) bool {
	for _, w := range s {
		if w == wc {
			return true
		}
	}
	return false
}
