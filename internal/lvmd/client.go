package lvmd

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lvm/internal/wire"
	"lvm/internal/workload"
)

// Client is one session-scoped connection to a daemon: dial, handshake,
// then exactly one session (Run/RunStream, or the Open/Send/Wait
// primitives they are built on). Kill may be called from any goroutine to
// abort the in-flight session; everything else is caller-serialized.
type Client struct {
	w  *wire.Conn[message]
	st SessionStats
}

// SessionStats reports what admission observed for one session.
type SessionStats struct {
	// ChargeBytes is the admission charge the session held.
	ChargeBytes uint64
	// QueueDepth is the admission queue depth when this session cleared
	// the semaphore — the backlog signal a load harness aggregates.
	QueueDepth int
}

// ErrKilled reports a session the daemon aborted on a kill request.
var ErrKilled = errors.New("lvmd: session killed")

// Dial connects and performs the handshake. cfg must equal the daemon's
// configuration — the fingerprint exchange enforces it.
func Dial(addr string, cfg Config) (*Client, error) {
	return DialRetry(addr, cfg, 1, 0)
}

// DialRetry dials with retries (for daemons still starting up), then
// performs the handshake. attempts < 1 means 30, backoff <= 0 means 200ms.
func DialRetry(addr string, cfg Config, attempts int, backoff time.Duration) (*Client, error) {
	if attempts < 1 {
		attempts = 30
	}
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	fp, err := cfg.Fingerprint()
	if err != nil {
		return nil, err
	}
	var conn net.Conn
	for i := 0; i < attempts; i++ {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(backoff)
	}
	if err != nil {
		return nil, fmt.Errorf("lvmd: dialing %s: %w", addr, err)
	}
	w := wire.New[message](conn)
	if err := w.Send(hello(fp)); err != nil {
		w.Close()
		return nil, fmt.Errorf("lvmd: hello: %w", err)
	}
	m, err := w.Recv()
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("lvmd: handshake: %w", err)
	}
	switch m.Type {
	case msgWelcome:
	case msgReject:
		w.Close()
		return nil, fmt.Errorf("lvmd: rejected by daemon: %s", m.Reason)
	default:
		w.Close()
		return nil, fmt.Errorf("lvmd: unexpected handshake reply %q", m.Type)
	}
	return &Client{w: w}, nil
}

// hello is the handshake frame of a client configured with fingerprint fp;
// the daemon vets a client's against its own.
func hello(fp string) message {
	return message{Type: msgHello, Hello: wire.Hello{Proto: ProtocolVersion, SchemaVersion: StreamSchemaVersion, Fingerprint: fp}}
}

// Close releases the connection. Closing mid-session aborts it daemon-side
// exactly like a client crash.
func (c *Client) Close() error { return c.w.Close() }

// Open starts a session. The caller then drives it with Send (stream
// sessions) and collects it with WaitAdmitted/Wait.
func (c *Client) Open(open OpenRequest) error {
	if err := c.w.Send(message{Type: msgOpen, Open: &open}); err != nil {
		return fmt.Errorf("lvmd: open: %w", err)
	}
	return nil
}

// Send delivers one streamed trace chunk; done marks the end of the trace.
func (c *Client) Send(accesses []workload.Access, done bool) error {
	return c.w.Send(message{Type: msgTrace, Count: len(accesses), Trace: packTrace(accesses), Done: done})
}

// WaitAdmitted blocks until the daemon admits the session past the memory
// and worker semaphores. A terminal frame arriving first is returned as
// that session's error.
func (c *Client) WaitAdmitted() (SessionStats, error) {
	for {
		m, err := c.w.Recv()
		if err != nil {
			return c.st, fmt.Errorf("lvmd: connection lost: %w", err)
		}
		done, _, err := c.consume(m, nil)
		if err != nil {
			return c.st, err
		}
		if done {
			return c.st, errors.New("lvmd: session finished before admission frame")
		}
		if m.Type == msgAdmitted {
			return c.st, nil
		}
	}
}

// Wait drains the session's daemon frames through to its terminal result
// or error, delivering every interval to onInterval (nil to discard) in
// stream order.
func (c *Client) Wait(onInterval func(IntervalDoc)) (*ResultDoc, SessionStats, error) {
	for {
		m, err := c.w.Recv()
		if err != nil {
			return nil, c.st, fmt.Errorf("lvmd: connection lost: %w", err)
		}
		done, res, err := c.consume(m, onInterval)
		if err != nil {
			return nil, c.st, err
		}
		if done {
			return res, c.st, nil
		}
	}
}

// consume folds one daemon frame into the session state: (true, res, nil)
// for a result, an error for error frames, (false, nil, nil) otherwise.
func (c *Client) consume(m message, onInterval func(IntervalDoc)) (bool, *ResultDoc, error) {
	switch m.Type {
	case msgAdmitted:
		c.st = SessionStats{ChargeBytes: m.ChargeBytes, QueueDepth: m.QueueDepth}
	case msgInterval:
		if m.Interval != nil && onInterval != nil {
			onInterval(*m.Interval)
		}
	case msgResult:
		if m.Result == nil {
			return false, nil, errors.New("lvmd: result frame without a result")
		}
		return true, m.Result, nil
	case msgError:
		if m.Reason == reasonKilled {
			return false, nil, ErrKilled
		}
		return false, nil, fmt.Errorf("lvmd: session failed: %s", m.Reason)
	default:
		// Unknown frames are ignored for forward compatibility.
	}
	return false, nil, nil
}

// Run opens a session replaying the named workload daemon-side and blocks
// until the result.
func (c *Client) Run(open OpenRequest, onInterval func(IntervalDoc)) (*ResultDoc, SessionStats, error) {
	open.Stream = false
	if err := c.Open(open); err != nil {
		return nil, SessionStats{}, err
	}
	return c.Wait(onInterval)
}

// RunStream opens a stream session and feeds it accesses in chunks of
// chunk (<=0 means 4096) while receiving intervals, blocking until the
// result. The daemon replays the streamed trace bit-identically to a
// daemon-side replay of the same accesses.
func (c *Client) RunStream(open OpenRequest, accesses []workload.Access, chunk int, onInterval func(IntervalDoc)) (*ResultDoc, SessionStats, error) {
	if chunk <= 0 {
		chunk = 4096
	}
	open.Stream = true
	if err := c.Open(open); err != nil {
		return nil, SessionStats{}, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(accesses); i += chunk {
			end := i + chunk
			if end > len(accesses) {
				end = len(accesses)
			}
			// A send failure means the session is over (result, error, or
			// drop); the receive loop reports it, so just stop feeding.
			if err := c.Send(accesses[i:end], end == len(accesses)); err != nil {
				return
			}
		}
		if len(accesses) == 0 {
			c.Send(nil, true)
		}
	}()
	res, st, err := c.Wait(onInterval)
	// Unblock a sender stuck on a dead session before waiting it out.
	if err != nil {
		c.w.Close()
	}
	wg.Wait()
	return res, st, err
}
