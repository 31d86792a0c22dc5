// Command lvmd runs the translation-simulation daemon: it listens for
// lvmd wire-protocol clients (cmd/lvmload, tests), serves each connection
// one access-trace session on a per-tenant simulated machine, and streams
// live metric windows back. See DESIGN.md §9 for the protocol and the
// serving bit-identity contract.
//
// Usage:
//
//	lvmd -listen 127.0.0.1:7087 -quick
//
// SIGTERM/SIGINT shut the daemon down cleanly: open sessions are
// cancelled, admission queues drain, and the process self-asserts that no
// goroutines leaked before printing "clean shutdown".
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lvm/internal/lvmd"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7087", "address to serve the lvmd wire protocol on")
	quick := flag.Bool("quick", false, "serve the reduced quick-scale config (tests, CI) instead of the full sweep config")
	mem := flag.Uint64("mem", 0, "admission budget in bytes over summed per-tenant footprint charges (0 = default)")
	workers := flag.Int("workers", 0, "concurrently simulating sessions (0 = GOMAXPROCS)")
	every := flag.Int("every", 0, "default interval window in accesses for sessions that do not set one (0 = one whole-trace window)")
	flag.Parse()

	// Goroutine baseline for the shutdown self-check, taken before any
	// server machinery (or the signal handler) spawns.
	baseline := runtime.NumGoroutine()

	cfg := lvmd.Default()
	if *quick {
		cfg = lvmd.Quick()
	}
	cfg.MemBudgetBytes = *mem
	cfg.Workers = *workers
	cfg.DefaultEvery = *every

	srv, err := lvmd.NewServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmd: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("lvmd: listening on %s (quick=%t)\n", ln.Addr(), *quick)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case s := <-sig:
		fmt.Printf("lvmd: %v: shutting down\n", s)
		srv.Close()
		if err := <-done; err != nil {
			fmt.Fprintf(os.Stderr, "lvmd: %v\n", err)
			os.Exit(1)
		}
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvmd: %v\n", err)
			os.Exit(1)
		}
	}

	// Self-assert the shutdown drained every goroutine the daemon spawned
	// (the signal handler's internal goroutine accounts for the slack).
	leaked := 0
	for i := 0; i < 200; i++ {
		if leaked = runtime.NumGoroutine() - baseline; leaked <= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaked > 2 {
		fmt.Fprintf(os.Stderr, "lvmd: %d goroutines leaked past shutdown\n", leaked)
		os.Exit(1)
	}
	fmt.Println("lvmd: clean shutdown")
}
