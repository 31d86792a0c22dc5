// Package orch is the distributed sweep orchestrator: a coordinator
// (Serve) owns a deduped experiment plan and hands its runs out to worker
// processes (Worker.Run) over a length-prefixed JSON wire protocol.
//
// The design goal is the same determinism contract the rest of the
// experiment stack upholds: the coordinator's runner ends up with exactly
// the run outputs an unsharded sweep would compute, bit for bit, no matter
// how many workers join, which runs get stolen or retried, or how much of
// the sweep was restored from the run cache. That holds because outputs
// travel through the runio seam (MarshalRunOutput/UnmarshalRunOutput),
// which round-trips RunOutputs losslessly, and because every table renders
// purely from installed runs in plan order — scheduling only ever shows up
// on the Sink's progress stream.
//
// Dispatch is cost-aware (EstimateCosts footprint, largest-first per
// worker budget), idle workers steal outstanding runs from stragglers
// (first completion wins; later duplicates are discarded by RunKey), and
// failed runs are retried with capped backoff, preferring a different
// worker. Completed runs stream into the run cache as they arrive, so an
// interrupted sweep resumes re-simulating nothing.
package orch

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"lvm/internal/experiments"
)

// protocolVersion gates the handshake; a coordinator rejects workers
// speaking a different frame layout.
const protocolVersion = 1

// maxMsgBytes bounds one frame. Run outputs are a few hundred KB of JSON;
// anything near this limit is a corrupt or hostile peer.
const maxMsgBytes = 64 << 20

type msgType string

const (
	msgHello    msgType = "hello"    // worker → coordinator: handshake
	msgWelcome  msgType = "welcome"  // coordinator → worker: handshake accepted
	msgReject   msgType = "reject"   // coordinator → worker: handshake refused
	msgAssign   msgType = "assign"   // coordinator → worker: execute Key
	msgResult   msgType = "result"   // worker → coordinator: Key's output or error
	msgShutdown msgType = "shutdown" // coordinator → worker: sweep complete
)

// message is the single frame shape of the protocol; which fields are
// meaningful depends on Type.
type message struct {
	Type msgType `json:"type"`
	// hello fields: the handshake the coordinator vets, mirroring the
	// validation -merge enforces on shard documents.
	Proto         int    `json:"proto,omitempty"`
	SchemaVersion int    `json:"schema_version,omitempty"`
	Fingerprint   string `json:"fingerprint,omitempty"`
	Worker        string `json:"worker,omitempty"`
	Capacity      int    `json:"capacity,omitempty"`
	BudgetBytes   uint64 `json:"budget_bytes,omitempty"`
	// reject field.
	Reason string `json:"reason,omitempty"`
	// assign/result fields. Output is the MarshalRunOutput form;
	// HostSeconds rides alongside because the runio doc deliberately
	// excludes it (observational, machine-dependent).
	Key         *experiments.RunKey `json:"key,omitempty"`
	Output      json.RawMessage     `json:"output,omitempty"`
	HostSeconds float64             `json:"host_seconds,omitempty"`
	Error       string              `json:"error,omitempty"`
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
		return fmt.Errorf("orch: encoding %s: %w", m.Type, err)
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
		return message{}, fmt.Errorf("orch: frame of %d bytes exceeds limit %d", n, maxMsgBytes)
	}
	// Read the payload as it arrives rather than allocating the claimed
	// length up front: a bare header must not pin a frame-sized buffer.
	b, err := io.ReadAll(io.LimitReader(w.conn, int64(n)))
	if err != nil {
		return message{}, err
	}
	if len(b) != int(n) {
		return message{}, fmt.Errorf("orch: frame truncated at %d of %d bytes: %w", len(b), n, io.ErrUnexpectedEOF)
	}
	var m message
	if err := json.Unmarshal(b, &m); err != nil {
		return message{}, fmt.Errorf("orch: decoding frame: %w", err)
	}
	return m, nil
}

func (w *wire) close() error { return w.conn.Close() }

// orchSinkOf returns s's OrchSink extension, or a no-op fallback.
func orchSinkOf(s experiments.Sink) experiments.OrchSink {
	if os, ok := s.(experiments.OrchSink); ok {
		return os
	}
	return nopOrchSink{}
}

type nopOrchSink struct{}

func (nopOrchSink) WorkerConnected(string, string, int)            {}
func (nopOrchSink) WorkerGone(string, error)                       {}
func (nopOrchSink) RunAssigned(experiments.RunKey, string, bool)   {}
func (nopOrchSink) RunRetry(experiments.RunKey, int, int, string)  {}
func (nopOrchSink) RunDuplicate(experiments.RunKey, string)        {}
