// Package wire is the framing and handshake layer under the translation
// daemon (internal/lvmd). A frame is a 4-byte big-endian payload length
// followed by that many bytes of JSON; a protocol defines its own message
// type and speaks it through a Conn. Every connection opens with a Hello
// whose protocol version, schema version and config fingerprint the
// accepting side vets before anything else crosses the wire.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// MaxFrameBytes bounds one frame's payload. Session results and interval
// windows are small JSON documents and trace chunks are client-bounded;
// anything near this limit is a corrupt or hostile peer.
const MaxFrameBytes = 64 << 20

// Conn frames messages of type M over one connection. Each side runs a
// single reader loop; sends may come from any goroutine.
type Conn[M any] struct {
	rw io.ReadWriteCloser
	mu sync.Mutex // guards writes to rw
}

// New wraps rw (usually a net.Conn).
func New[M any](rw io.ReadWriteCloser) *Conn[M] { return &Conn[M]{rw: rw} }

// Send encodes m and writes it as one frame.
func (c *Conn[M]) Send(m M) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wire: encoding frame: %w", err)
	}
	frame := make([]byte, 4+len(b))
	binary.BigEndian.PutUint32(frame, uint32(len(b)))
	copy(frame[4:], b)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err = c.rw.Write(frame)
	return err
}

// Recv reads and decodes the next frame.
func (c *Conn[M]) Recv() (M, error) {
	var m M
	var hdr [4]byte
	if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		return m, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return m, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	// Read the payload as it arrives rather than allocating the claimed
	// length up front: a bare header must not pin a frame-sized buffer.
	b, err := io.ReadAll(io.LimitReader(c.rw, int64(n)))
	if err != nil {
		return m, err
	}
	if len(b) != int(n) {
		return m, fmt.Errorf("wire: frame truncated at %d of %d bytes: %w", len(b), n, io.ErrUnexpectedEOF)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("wire: decoding frame: %w", err)
	}
	return m, nil
}

// Close closes the underlying connection, unblocking a pending Recv.
func (c *Conn[M]) Close() error { return c.rw.Close() }

// Hello is the handshake a protocol opens with. Message types embed it
// so its fields sit inline in the hello frame's JSON.
type Hello struct {
	Proto         int    `json:"proto,omitempty"`
	SchemaVersion int    `json:"schema_version,omitempty"`
	Fingerprint   string `json:"fingerprint,omitempty"`
}

// Vet returns why a peer announcing h cannot talk to a side expecting
// want — a different frame layout, document schema or config — or "" when
// all three match.
func (h Hello) Vet(want Hello) string {
	switch {
	case h.Proto != want.Proto:
		return fmt.Sprintf("protocol v%d, want v%d", h.Proto, want.Proto)
	case h.SchemaVersion != want.SchemaVersion:
		return fmt.Sprintf("schema v%d, want v%d", h.SchemaVersion, want.SchemaVersion)
	case h.Fingerprint != want.Fingerprint:
		return fmt.Sprintf("config fingerprint %.12s does not match %.12s — the peer is configured for a different sweep or machine", h.Fingerprint, want.Fingerprint)
	}
	return ""
}
