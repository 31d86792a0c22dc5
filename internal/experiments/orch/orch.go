// Package orch is the distributed sweep orchestrator: a coordinator
// (Serve) owns a deduped experiment plan and hands its runs out to worker
// processes (Worker.Run) over a length-prefixed JSON wire protocol (internal/wire).
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
	"encoding/json"

	"lvm/internal/experiments"
	"lvm/internal/wire"
)

// protocolVersion gates the handshake; a coordinator rejects workers
// speaking a different frame layout.
const protocolVersion = 1

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
	// hello fields: the handshake the coordinator vets, plus the worker's
	// identity and capacity advertisement.
	wire.Hello
	Worker      string `json:"worker,omitempty"`
	Capacity    int    `json:"capacity,omitempty"`
	BudgetBytes uint64 `json:"budget_bytes,omitempty"`
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
