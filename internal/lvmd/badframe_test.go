package lvmd

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"lvm/internal/oskernel"
	"lvm/internal/workload"
)

// TestBadTraceFrameReleasesAdmission pins the budget to one session and
// parks a stream session on it, which then sends a trace frame whose count
// disagrees with its payload: the daemon must answer with an error frame
// and end the session, and the budget must flow to the session queued
// behind it. It sits inside the package because no Client method can send
// a malformed frame.
func TestBadTraceFrameReleasesAdmission(t *testing.T) {
	cfg := Quick()
	cfg.Exp.Params = workload.QuickParams()
	cfg.Exp.Workloads = []string{"bfs"}
	cfg.Exp.PhysSlackBytes = 32 << 20
	w, err := workload.Build("bfs", cfg.Exp.Params)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemBudgetBytes = cfg.Exp.RunCostBytes(w.FootprintBytes())
	cfg.Workers = 2
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve exited with error: %v", err)
		}
	}()
	waitFor := func(what string, cond func(ServerStats) bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(srv.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("never observed: %s", what)
			}
		}
	}

	// A: a stream session that holds the whole budget, fed one good chunk.
	a, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Open(OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM, Stream: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WaitAdmitted(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(w.Accesses[:100], false); err != nil {
		t.Fatal(err)
	}

	// B: queued behind A.
	b, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Open(OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM}); err != nil {
		t.Fatal(err)
	}
	waitFor("B queued", func(st ServerStats) bool { return st.Admission.QueueDepth == 1 })

	// Three accesses claimed, one access's worth of bytes sent.
	if err := a.w.Send(message{Type: msgTrace, Count: 3, Trace: make([]byte, 9)}); err != nil {
		t.Fatal(err)
	}
	_, _, err = a.Wait(nil)
	if err == nil || errors.Is(err, ErrKilled) || !strings.Contains(err.Error(), "trace frame") {
		t.Fatalf("A after a bad trace frame returned %v, want a trace-frame session error", err)
	}
	if res, _, err := b.Wait(nil); err != nil || res == nil {
		t.Fatalf("B after A's budget release: %v", err)
	}
	waitFor("all sessions retired", func(st ServerStats) bool {
		return st.Sessions == 0 && st.Admission.InFlight == 0 && st.Admission.InUseBytes == 0
	})
}
