package lvmd

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/wire"
	"lvm/internal/workload"
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

// TestHelloFrameGolden pins the bytes of a client's hello frame: length
// prefix, field names, field order and protocol version. A daemon and a
// client built from different revisions can only meet if these stay put.
func TestHelloFrameGolden(t *testing.T) {
	const golden = "\x00\x00\x00^" + `{"type":"hello","proto":2,"schema_version":1,` +
		`"fingerprint":"0123456789abcdef0123456789abcdef"}`
	var buf frameBuffer
	if err := wire.New[message](&buf).Send(hello("0123456789abcdef0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Errorf("hello frame\n got %q\nwant %q", got, golden)
	}
}

// TestPackTraceRoundTrip packs and unpacks edge-case chunks and checks the
// payload layout and every access, write flag included, bit for bit — the
// timing model ignores Access.Write, so a served run cannot see a dropped
// write bit.
func TestPackTraceRoundTrip(t *testing.T) {
	vas := []uint64{
		0, 1 << 63, math.MaxUint64,
		0x0000_7fff_ffff_f000, 0x0000_5555_5555_4008, 0x0000_7f12_3456_789a, 0x1000,
	}
	for _, n := range []int{0, 1, 7, 8, 9, 4096} {
		in := make([]workload.Access, n)
		for i := range in {
			in[i] = workload.Access{
				VA:    addr.VA(vas[(i+n)%len(vas)]),
				Write: i%3 == 0 || i%8 == 7,
			}
		}
		b := packTrace(in)
		if want := 8*n + (n+7)/8; len(b) != want {
			t.Fatalf("n=%d: payload of %d bytes, want %d", n, len(b), want)
		}
		for i, a := range in {
			if va := binary.LittleEndian.Uint64(b[8*i:]); va != uint64(a.VA) {
				t.Fatalf("n=%d: access %d VA packed as %#x, want %#x", n, i, va, uint64(a.VA))
			}
			if w := b[8*n+i/8]>>(i%8)&1 == 1; w != a.Write {
				t.Fatalf("n=%d: access %d write bit packed as %t, want %t", n, i, w, a.Write)
			}
		}
		out, err := unpackTrace(n, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: unpacked %d accesses", n, len(out))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("n=%d: access %d unpacked as %+v, want %+v", n, i, out[i], in[i])
			}
		}
	}
}

// FuzzTraceFrame feeds the daemon's trace-frame decoder arbitrary counts
// and payloads. Every input must either decode to exactly count accesses
// that re-encode to the same bytes, or be refused; it must never panic,
// and what it allocates must stay proportional to the payload, whatever
// the count claims. Seeds live in testdata/fuzz/FuzzTraceFrame.
func FuzzTraceFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, count int, trace []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		accesses, err := unpackTrace(count, trace)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 3*uint64(len(trace))+8192; grew > limit {
			t.Fatalf("decoding %d claimed accesses from %d bytes allocated %d bytes, limit %d", count, len(trace), grew, limit)
		}
		if err != nil {
			return
		}
		if len(accesses) != count {
			t.Fatalf("decoded %d accesses, frame claims %d", len(accesses), count)
		}
		if re := packTrace(accesses); !bytes.Equal(re, trace) {
			t.Fatalf("decoded frame re-encodes to different bytes:\n got %x\nwant %x", re, trace)
		}
	})
}
