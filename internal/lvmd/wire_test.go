package lvmd

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
)

// TestRecvBareHeaderDoesNotPinFrame sends a header claiming a maximal frame
// and then hangs up: recv must fail, and must not have allocated the
// claimed length while waiting for a payload that never comes.
func TestRecvBareHeaderDoesNotPinFrame(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxMsgBytes)
		client.Write(hdr[:])
		client.Close()
	}()
	w := &wire{conn: server}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := w.recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("recv of a header with no payload succeeded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("recv allocated %d bytes for a bare header, want < 1 MiB", grew)
	}
}
