package orch

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"lvm/internal/wire"
)

// frameBuffer collects the frames a Conn sends.
type frameBuffer struct{ bytes.Buffer }

func (*frameBuffer) Close() error { return nil }

// TestRecvBareHeaderDoesNotPinFrame sends a header claiming a maximal frame
// to this package's message connection and then hangs up: Recv must fail,
// and must not have allocated the claimed length while waiting for a
// payload that never comes.
func TestRecvBareHeaderDoesNotPinFrame(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], wire.MaxFrameBytes)
		client.Write(hdr[:])
		client.Close()
	}()
	w := wire.New[message](server)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := w.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Recv of a header with no payload succeeded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("Recv allocated %d bytes for a bare header, want < 1 MiB", grew)
	}
}

// TestHelloFrameGolden pins the bytes of a worker's hello frame: length
// prefix, field names, field order and protocol version. A coordinator
// and a worker built from different revisions can only meet if these stay
// put.
func TestHelloFrameGolden(t *testing.T) {
	const golden = "\x00\x00\x00\x98" + `{"type":"hello","proto":1,"schema_version":2,` +
		`"fingerprint":"0123456789abcdef0123456789abcdef","worker":"host:42","capacity":4,"budget_bytes":8589934592}`
	wk := Worker{Fingerprint: "0123456789abcdef0123456789abcdef", Name: "host:42", Capacity: 4, BudgetBytes: 8 << 30}
	var buf frameBuffer
	if err := wire.New[message](&buf).Send(wk.hello()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Errorf("hello frame\n got %q\nwant %q", got, golden)
	}
}
