package wire

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// testMsg is a message shape like lvmd's: a type tag with the
// handshake inline.
type testMsg struct {
	Type string `json:"type"`
	Hello
	Count  int    `json:"count,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// loopback is a connection that reads back what was written to it.
type loopback struct{ bytes.Buffer }

func (*loopback) Close() error { return nil }

// TestRecvBareHeaderDoesNotPinFrame sends a header claiming a maximal frame
// and then hangs up: Recv must fail, and must not have allocated the
// claimed length while waiting for a payload that never comes.
func TestRecvBareHeaderDoesNotPinFrame(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes)
		client.Write(hdr[:])
		client.Close()
	}()
	c := New[testMsg](server)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Recv of a header with no payload succeeded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("Recv allocated %d bytes for a bare header, want < 1 MiB", grew)
	}
}

// TestSendRecvRoundTrip sends frames across a pipe from two goroutines at
// once and receives them intact.
func TestSendRecvRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := New[testMsg](a), New[testMsg](b)
	defer ca.Close()
	defer cb.Close()
	want := testMsg{Type: "hello", Hello: Hello{Proto: 3, SchemaVersion: 2, Fingerprint: "feed"}, Count: 7}
	done := make(chan error, 2)
	for range 2 {
		go func() { done <- ca.Send(want) }()
	}
	for range 2 {
		got, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("received %+v, want %+v", got, want)
		}
	}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHelloVet(t *testing.T) {
	want := Hello{Proto: 2, SchemaVersion: 1, Fingerprint: "0123456789abcdef"}
	if r := want.Vet(want); r != "" {
		t.Errorf("matching hello refused: %s", r)
	}
	for _, tc := range []struct {
		h    Hello
		word string
	}{
		{Hello{Proto: 1, SchemaVersion: 1, Fingerprint: want.Fingerprint}, "protocol"},
		{Hello{Proto: 2, SchemaVersion: 2, Fingerprint: want.Fingerprint}, "schema"},
		{Hello{Proto: 2, SchemaVersion: 1, Fingerprint: "deadbeef"}, "fingerprint"},
	} {
		if r := tc.h.Vet(want); !strings.Contains(r, tc.word) {
			t.Errorf("Vet(%+v) = %q, want a reason naming the %s", tc.h, r, tc.word)
		}
	}
}

// FuzzRecv feeds the frame decoder arbitrary inbound bytes. Every input
// must either decode or be refused; it must never panic, what it
// allocates must stay proportional to the bytes that actually arrived,
// whatever the header claims, and a decoded message must survive a
// Send/Recv round trip unchanged. Seeds live in testdata/fuzz/FuzzRecv.
func FuzzRecv(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		inbound := &loopback{}
		inbound.Write(in)
		c := New[testMsg](inbound)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := c.Recv()
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(in))+16<<10; grew > limit {
			t.Fatalf("decoding %d inbound bytes allocated %d bytes, limit %d", len(in), grew, limit)
		}
		if err != nil {
			return
		}
		c = New[testMsg](&loopback{})
		if err := c.Send(m); err != nil {
			t.Fatalf("re-sending %+v: %v", m, err)
		}
		again, err := c.Recv()
		if err != nil {
			t.Fatalf("re-receiving %+v: %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}
