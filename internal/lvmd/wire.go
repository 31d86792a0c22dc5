// Package lvmd is the simulation-as-a-service daemon: clients open
// access-trace sessions over a length-prefixed JSON wire protocol, each
// session simulates on its own per-tenant machine (physical memory, OS
// kernel, CPU) driven through sim.Session's translation loop, and live
// per-tenant metric windows stream back as the trace advances.
//
// The serving contract is the same determinism bar the experiment stack
// upholds: a served session's interval deltas and final result are
// bit-identical to a standalone sim run of the same configuration
// (test-enforced), because tenant machines are built through the
// experiments.Config.NewRunMachine seam and driven by sim.Session, whose
// chunking is a pure performance knob. Concurrency decides only *when* a
// tenant simulates — admission is sched.Admission over the sweep's
// footprint cost formula — never what it computes.
package lvmd

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"lvm/internal/oskernel"
)

// ProtocolVersion gates the handshake; the daemon rejects clients speaking
// a different frame layout.
const ProtocolVersion = 1

// StreamSchemaVersion versions the interval/result stream documents. It is
// vetted in the handshake alongside the config fingerprint so a client
// never misreads windows produced under a different schema.
const StreamSchemaVersion = 1

// maxMsgBytes bounds one frame. Interval and result documents are a few KB
// of JSON and trace chunks are client-bounded; anything near this limit is
// a corrupt or hostile peer.
const maxMsgBytes = 64 << 20

type msgType string

const (
	msgHello    msgType = "hello"    // client → daemon: handshake
	msgWelcome  msgType = "welcome"  // daemon → client: handshake accepted
	msgReject   msgType = "reject"   // daemon → client: handshake refused
	msgOpen     msgType = "open"     // client → daemon: start a session
	msgAdmitted msgType = "admitted" // daemon → client: session past admission
	msgTrace    msgType = "trace"    // client → daemon: streamed access chunk
	msgInterval msgType = "interval" // daemon → client: one metric window
	msgResult   msgType = "result"   // daemon → client: final result, session over
	msgError    msgType = "error"    // daemon → client: session failed
	msgKill     msgType = "kill"     // client → daemon: abort the session
)

// OpenRequest configures one session. With Stream false the daemon replays
// the named workload's own trace; with Stream true the client delivers the
// trace in msgTrace chunks (the workload still names the address space the
// tenant is launched with — a trace is meaningless without the mappings it
// references).
type OpenRequest struct {
	// Workload names the workload whose address space (and, when Stream is
	// false, trace) the tenant runs.
	Workload string          `json:"workload"`
	Scheme   oskernel.Scheme `json:"scheme"`
	THP      bool            `json:"thp,omitempty"`
	// Warmup fast-forwards the first Warmup accesses through functional
	// state before the measured session begins, exactly like the sweep's
	// warmup runs. Rejected for stream sessions.
	Warmup int `json:"warmup,omitempty"`
	// Every is the interval window in accesses (0 uses the daemon's
	// default; windows are cut relative to the measured region's start).
	Every int `json:"every,omitempty"`
	// Stream marks a client-fed trace session.
	Stream bool `json:"stream,omitempty"`
}

// WireAccess is one streamed trace access.
type WireAccess struct {
	VA uint64 `json:"va"`
	W  bool   `json:"w,omitempty"`
}

// IntervalDoc is one streamed metric window: the component-counter deltas
// that accrued over the half-open access range [Start, End), serialized
// with the deterministic metrics.Set encoding — the bytes equal what a
// standalone sim.RunIntervals window marshals to.
type IntervalDoc struct {
	Start   int             `json:"start"`
	End     int             `json:"end"`
	Metrics json.RawMessage `json:"metrics"`
}

// ResultDoc is the session's sealed outcome. Sim holds the full sim.Result
// document (scalar fields plus the final metrics snapshot); the scalar
// mirrors exist so throughput harnesses need not parse it.
type ResultDoc struct {
	Workload     string          `json:"workload"`
	Scheme       string          `json:"scheme"`
	Accesses     uint64          `json:"accesses"`
	Instructions uint64          `json:"instructions"`
	Cycles       float64         `json:"cycles"`
	Sim          json.RawMessage `json:"sim"`
}

// message is the single frame shape of the protocol; which fields are
// meaningful depends on Type.
type message struct {
	Type msgType `json:"type"`
	// hello fields, vetted exactly like the sweep orchestrator's handshake.
	Proto         int    `json:"proto,omitempty"`
	SchemaVersion int    `json:"schema_version,omitempty"`
	Fingerprint   string `json:"fingerprint,omitempty"`
	// welcome fields: the daemon's capacity advertisement.
	Workers     int    `json:"workers,omitempty"`
	BudgetBytes uint64 `json:"budget_bytes,omitempty"`
	// reject/error field.
	Reason string `json:"reason,omitempty"`
	// open field.
	Open *OpenRequest `json:"open,omitempty"`
	// admitted fields: the admission charge and the queue depth observed
	// when this session cleared the semaphore.
	ChargeBytes uint64 `json:"charge_bytes,omitempty"`
	QueueDepth  int    `json:"queue_depth,omitempty"`
	// trace fields; Done marks the end of a streamed trace.
	Accesses []WireAccess `json:"accesses,omitempty"`
	Done     bool         `json:"done,omitempty"`
	// interval / result payloads.
	Interval *IntervalDoc `json:"interval,omitempty"`
	Result   *ResultDoc   `json:"result,omitempty"`
}

// wire frames length-prefixed (4-byte big-endian) JSON messages over one
// connection. Each side runs a single reader loop; sends may come from any
// goroutine.
type wire struct {
	conn net.Conn
	mu   sync.Mutex // guards writes to conn
}

func (w *wire) send(m message) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("lvmd: encoding %s: %w", m.Type, err)
	}
	frame := make([]byte, 4+len(b))
	binary.BigEndian.PutUint32(frame, uint32(len(b)))
	copy(frame[4:], b)
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.conn.Write(frame)
	return err
}

func (w *wire) recv() (message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(w.conn, hdr[:]); err != nil {
		return message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxMsgBytes {
		return message{}, fmt.Errorf("lvmd: frame of %d bytes exceeds limit %d", n, maxMsgBytes)
	}
	// Read the payload as it arrives rather than allocating the claimed
	// length up front: a bare header must not pin a frame-sized buffer.
	b, err := io.ReadAll(io.LimitReader(w.conn, int64(n)))
	if err != nil {
		return message{}, err
	}
	if len(b) != int(n) {
		return message{}, fmt.Errorf("lvmd: frame truncated at %d of %d bytes: %w", len(b), n, io.ErrUnexpectedEOF)
	}
	var m message
	if err := json.Unmarshal(b, &m); err != nil {
		return message{}, fmt.Errorf("lvmd: decoding frame: %w", err)
	}
	return m, nil
}

func (w *wire) close() error { return w.conn.Close() }
