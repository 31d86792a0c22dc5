package lvmd_test

import (
	"testing"

	"lvm/internal/lvmd"
	"lvm/internal/oskernel"
	"lvm/internal/workload"
)

// BenchmarkServedReplay measures end-to-end served translation throughput
// for one tenant: daemon-side replay of the gups quick workload over a
// localhost connection, whole trace as one window. b.N counts sessions;
// translations/sec is reported as a custom metric.
func BenchmarkServedReplay(b *testing.B) {
	benchmarkServed(b, false)
}

// BenchmarkServedStream is BenchmarkServedReplay with the client streaming
// the gups trace in default-sized chunks, so trace framing and decoding are
// on the clock as well.
func BenchmarkServedStream(b *testing.B) {
	benchmarkServed(b, true)
}

func benchmarkServed(b *testing.B, stream bool) {
	cfg := lvmd.Quick()
	srv, addrStr := startServer(b, cfg)
	defer srv.Close()
	var trace []workload.Access
	if stream {
		w, err := workload.Build("gups", cfg.Exp.Params)
		if err != nil {
			b.Fatal(err)
		}
		trace = w.Accesses
	}

	open := lvmd.OpenRequest{Workload: "gups", Scheme: oskernel.SchemeLVM}
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := lvmd.Dial(addrStr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var res *lvmd.ResultDoc
		if stream {
			res, _, err = c.RunStream(open, trace, 0, nil)
		} else {
			res, _, err = c.Run(open, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		accesses += res.Accesses
		c.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "translations/s")
}
