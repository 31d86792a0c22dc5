// Package lvmd is the simulation-as-a-service daemon: clients open
// access-trace sessions over a length-prefixed JSON wire protocol
// (internal/wire), each session simulates on its own per-tenant machine
// (physical memory, OS kernel, CPU) driven through sim.Session's
// translation loop, and live per-tenant metric windows stream back as the
// trace advances.
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
	"errors"
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/oskernel"
	"lvm/internal/wire"
	"lvm/internal/workload"
)

// ProtocolVersion gates the handshake; the daemon rejects clients speaking
// a different frame layout. Version 2 packs each trace chunk into bytes
// (see packTrace).
const ProtocolVersion = 2

// StreamSchemaVersion versions the interval/result stream documents. It is
// vetted in the handshake alongside the config fingerprint so a client
// never misreads windows produced under a different schema.
const StreamSchemaVersion = 1

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
	// hello fields, vetted by wire.Hello.Vet.
	wire.Hello
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
	// trace fields: Count accesses packed into Trace (see packTrace; the
	// bytes travel as base64); Done marks the end of a streamed trace.
	Count int    `json:"count,omitempty"`
	Trace []byte `json:"trace,omitempty"`
	Done  bool   `json:"done,omitempty"`
	// interval / result payloads.
	Interval *IntervalDoc `json:"interval,omitempty"`
	Result   *ResultDoc   `json:"result,omitempty"`
}

// packTrace encodes accesses as a trace payload: each VA as 8 bytes
// little-endian, unshifted and unmasked, then a write bitmap of ⌈n/8⌉
// bytes whose bit i%8 of byte i/8 is access i's write flag. Unused bitmap
// bits are zero.
func packTrace(accesses []workload.Access) []byte {
	n := len(accesses)
	b := make([]byte, 8*n+(n+7)/8)
	bits := b[8*n:]
	for i, a := range accesses {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(a.VA))
		if a.Write {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	return b
}

// unpackTrace decodes a payload of count accesses packed by packTrace. It
// checks the payload's length against count before allocating anything,
// so a hostile count cannot size an allocation, and it rejects set unused
// bitmap bits, so every payload it accepts re-encodes to itself.
func unpackTrace(count int, b []byte) ([]workload.Access, error) {
	if count < 0 || count > len(b)/8 || len(b) != 8*count+(count+7)/8 {
		return nil, fmt.Errorf("trace frame claims %d accesses in %d bytes, want 8 bytes each plus a ⌈n/8⌉-byte write bitmap", count, len(b))
	}
	bits := b[8*count:]
	if count%8 != 0 && bits[count/8]>>(count%8) != 0 {
		return nil, errors.New("trace frame's write bitmap has bits set past its last access")
	}
	accesses := make([]workload.Access, count)
	for i := range accesses {
		accesses[i] = workload.Access{
			VA:    addr.VA(binary.LittleEndian.Uint64(b[8*i:])),
			Write: bits[i/8]&(1<<(i%8)) != 0,
		}
	}
	return accesses, nil
}
