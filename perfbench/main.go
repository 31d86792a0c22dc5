// Command perfbench is the repository benchmark: it times the simulator's
// translate-then-access loop, the lvmd serving path and the OS page-table
// write path on four workloads, checks every simulated outcome against a
// committed reference, and prints one JSON result line. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload replay-miss --seed 42 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"lvm/internal/wallclock"
)

const (
	// minPasses is the fewest set-up-and-measure passes a run makes, so
	// setup_s is a median of at least three set-ups and every timed region
	// is the fastest of at least three (a traced run makes four, two of them
	// traced).
	minPasses = 3
	// budgetS stops a run from starting a pass that would end past it.
	budgetS = 150
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", referenceSeed, "workload seed (42 is the reference seed)")
	seconds := fs.Float64("seconds", 10, "least host seconds of passes to run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	writeRef := fs.String("write-reference", "", "merge the digests seen at seed 42 into this reference file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wd, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in {%s} and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	b := &bench{seed: *seed, traced: *trace == 1, l: newLedger(), chk: newChecker(ref, stderr), log: out}
	if b.traced {
		b.l.clockNs = calibrateClock()
	}
	passes := b.runPasses(wd, *seconds)

	fmt.Fprintf(out, "workload %s seed %d passes %d attempted %d failed %d\n",
		wd.name, *seed, len(passes), b.chk.attempted, b.chk.failed)
	var specs []metricSpec
	var vals map[string]float64
	if b.traced {
		specs, vals = perLayer(), b.perLayerValues(passes)
	} else {
		specs, vals = endToEnd, endToEndValues(passes, b.peakHeapMiB)
	}
	// Three figures are printed but kept out of the result line, whose
	// metrics every workload reports and which may never read 0: the failure
	// ratio, the process's peak resident set, which moves with the garbage
	// collector's timing by a fifth from run to run, and churn's page-table
	// operation rate (a median over passes).
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(out, "  %-36s %-14s %s\n", name, strconv.FormatFloat(v, 'g', 6, 64), unit)
	}
	line("fail_ratio", float64(b.chk.failed)/float64(max(b.chk.attempted, 1)), "ratio")
	line("peak_rss_mib", peakRSSMiB(), "MiB")
	if wd.churn {
		var opRates []float64
		for _, p := range passes {
			opRates = append(opRates, ratio(p.mgmtOps, p.mgmtS))
		}
		line("mgmt_ops_per_s", percentile(opRates, 50), "1/s")
	}
	res := result{Correct: b.chk.failed == 0 && b.chk.attempted > 0, Attempted: max(b.chk.attempted, 1), Failed: b.chk.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s is not finite\n", m.Name)
			v = 0
		}
		line(m.Name, v, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if *writeRef != "" {
		if err := b.chk.writeReference(*writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(js))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's state.
type bench struct {
	seed   int64
	traced bool
	l      *ledger
	chk    *checker
	log    io.Writer
	// pass is the index of the pass in progress.
	pass int
	// closureCells are the pass-0 cells the closure model prices.
	closureCells []closureCell
	// peakHeapMiB is the largest live heap settle saw in pass 0.
	peakHeapMiB float64
}

// closureCell is one cell's counts as the closure model sees them.
type closureCell struct {
	scheme string
	scalar bool
	counts cellCounts
}

// passStats is what one set-up-and-measure pass observed.
type passStats struct {
	traced bool
	// setupS is host time in builds, launches and warm-prefix fast-forward.
	setupS float64
	// accesses simulated, and host seconds, in the timed region.
	accesses, measuredS float64
	// regions are the timed region's parts in the order the pass ran them,
	// each as the host seconds of its chunks: one part per measured step of
	// a cell, in chunkLen-access chunks, or the closed loop for serve.
	regions [][]float64
	// latencies are the pass's cells or sessions in run order, each as the
	// host seconds of its chunks.
	latencies [][]float64
	// mgmtOps page-table operations took mgmtS host seconds (churn only).
	mgmtOps, mgmtS float64
	// simCycles over simAccesses is the simulated cost per access.
	simCycles, simAccesses float64
}

// timed charges one part of the timed region, given as the host seconds of
// its chunks, to the pass.
func (ps *passStats) timed(accesses float64, chunks []float64) {
	ps.accesses += accesses
	for _, s := range chunks {
		ps.measuredS += s
	}
	ps.regions = append(ps.regions, chunks)
}

// chunksOf turns the lap times of a region that ended at end into the
// seconds of each chunk; the last chunk runs to end.
func chunksOf(laps []float64, end float64) []float64 {
	if len(laps) == 0 {
		return []float64{end}
	}
	laps[len(laps)-1] = end
	out := make([]float64, len(laps))
	prev := 0.0
	for i, l := range laps {
		out[i], prev = l-prev, l
	}
	return out
}

// passSeed is the workload seed of pass p. Passes draw fresh inputs so
// repeated set-ups do not hit the in-process graph cache, which is keyed by
// seed. A traced run alternates untraced and traced passes, each pair on
// one seed, so the tracing overhead compares runs of identical inputs.
func (b *bench) passSeed(p int) int64 {
	if b.traced {
		return b.seed + int64(p/2)
	}
	return b.seed + int64(p)
}

// passTraced reports whether pass p runs with tracing on.
func (b *bench) passTraced(p int) bool { return b.traced && p%2 == 1 }

// runPasses repeats set-up-and-measure passes until at least minPasses
// have run and seconds have elapsed; a traced run ends on a traced pass.
// After the first pass of a traced run the layer ledger prices its cells.
func (b *bench) runPasses(wd *workloadDef, seconds float64) []passStats {
	start := wallclock.Start()
	var passes []passStats
	last := 0.0
	for p := 0; ; p++ {
		el := start.Seconds()
		done := p >= minPasses && (!b.traced || p%2 == 0)
		if done && (el >= seconds || el+2*last > budgetS) {
			break
		}
		b.pass = p
		ps := passStats{traced: b.passTraced(p)}
		t := wallclock.Start()
		if err := wd.pass(b, wd, b.passSeed(p), &ps); err != nil {
			b.chk.fail(fmt.Sprintf("%s pass %d", wd.name, p), err)
		}
		runtime.GC()
		last = t.Seconds()
		passes = append(passes, ps)
		fmt.Fprintf(b.log, "pass %d seed %d traced %t: setup %.3f s, %.0f accesses in %.3f s (%.4g/s)\n",
			p, b.passSeed(p), ps.traced, ps.setupS, ps.accesses, ps.measuredS, ratio(ps.accesses, ps.measuredS))
		if b.traced && p == 0 {
			if err := b.ledgerExtras(wd); err != nil {
				b.chk.fail(wd.name+" ledger", err)
			}
			runtime.GC()
		}
	}
	return passes
}

// settle collects garbage before a timed region, so the region does not
// pay for the set-up's, and in the first untraced pass records the live
// heap, which at that point holds the inputs and the machine about to run.
func (b *bench) settle(ps *passStats) {
	runtime.GC()
	if b.pass != 0 || ps.traced {
		return
	}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		b.peakHeapMiB = max(b.peakHeapMiB, float64(s[0].Value.Uint64())/(1<<20))
	}
}

// endToEndValues reduces the passes to the end-to-end metrics. Every pass
// runs the same regions and sessions in the same order on inputs of the
// same size, so each chunk of each is reduced to its fastest pass: the
// host's bursts of contention slow a chunk by up to half, and the fastest
// of several passes is what the code costs with them filtered out. The
// rate is the accesses over the summed fastest chunks; latency percentiles
// are taken over each cell step's or session's summed fastest chunks. Set-up
// time is a median over passes.
func endToEndValues(passes []passStats, peakHeapMiB float64) map[string]float64 {
	var setups []float64
	for _, p := range passes {
		setups = append(setups, p.setupS)
	}
	var secs float64
	for _, s := range fastest(passes, func(p passStats) [][]float64 { return p.regions }) {
		secs += s
	}
	lats := fastest(passes, func(p passStats) [][]float64 { return p.latencies })
	v := map[string]float64{
		"translations_per_s": 0,
		"setup_s":            percentile(setups, 50),
		"session_p50_s":      percentile(lats, 50),
		"session_p90_s":      percentile(lats, 90),
		"peak_heap_mib":      peakHeapMiB,
	}
	if len(passes) > 0 {
		v["translations_per_s"] = ratio(passes[0].accesses, secs)
		v["sim_cycles_per_access"] = ratio(passes[0].simCycles, passes[0].simAccesses)
	}
	return v
}

// fastest returns, for each position of the passes' lists of chunked
// regions, the sum over the region's chunks of the least seconds any pass
// took for that chunk.
func fastest(passes []passStats, regions func(passStats) [][]float64) []float64 {
	var best [][]float64
	for _, p := range passes {
		for i, chunks := range regions(p) {
			if i == len(best) {
				best = append(best, nil)
			}
			for k, s := range chunks {
				if k == len(best[i]) {
					best[i] = append(best[i], s)
				}
				best[i][k] = min(best[i][k], s)
			}
		}
	}
	out := make([]float64, len(best))
	for i, chunks := range best {
		for _, s := range chunks {
			out[i] += s
		}
	}
	return out
}

// tps is the translations per host second of the passes whose tracing
// is as given.
func tps(passes []passStats, traced bool) float64 {
	var acc, secs float64
	for _, p := range passes {
		if p.traced == traced {
			acc += p.accesses
			secs += p.measuredS
		}
	}
	return ratio(acc, secs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerValues reads every per-layer metric from the ledger and derives
// the closure and tracing-overhead figures.
func (b *bench) perLayerValues(passes []passStats) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range perLayer() {
		switch {
		case m.Name == "tlb.lookup_ns" || m.Name == "tlb.fill_ns" || strings.HasPrefix(m.Name, "cache.access_ns."):
			vals[m.Name] = b.l.opNs(m.Name)
		default:
			v, ok := b.l.value(m.Name)
			if !ok && !strings.HasPrefix(m.Name, "closure.") && m.Name != "trace.overhead_pct" {
				fmt.Fprintf(b.log, "note: %s was not measured\n", m.Name)
			}
			vals[m.Name] = v
		}
	}
	pred, resid := b.closure()
	vals["closure.predicted_ns"] = pred
	vals["closure.residual_pct"] = resid
	vals["trace.overhead_pct"] = 100 * (1 - ratio(tps(passes, true), tps(passes, false)))
	return vals
}

// closure prices each pass-0 cell with the ledger's layer costs and
// compares the prediction with measured sim.step_ns, per scheme and over
// the workload. A residual above 15% is printed as a finding.
func (b *bench) closure() (predicted, residual float64) {
	base := layerCosts{TLBLookup: b.l.opNs("tlb.lookup_ns"), TLBFill: b.l.opNs("tlb.fill_ns")}
	for i, lv := range cacheLevels {
		base.Access[i] = b.l.opNs("cache.access_ns." + lv)
	}
	type agg struct{ pred, meas, acc float64 }
	per := map[string]*agg{}
	var all agg
	for _, c := range b.closureCells {
		k := base
		if c.scalar {
			k.WalkerMiss, _ = b.l.value("walker." + c.scheme + ".walk_ns")
		} else {
			lk, _ := b.l.value("walker." + c.scheme + ".lookup_ns")
			wb, _ := b.l.value("walker." + c.scheme + ".walkbatch_ns")
			k.WalkerMiss = lk + wb
		}
		meas, _ := b.l.value("sim.step_ns." + c.scheme)
		p := predictNs(c.counts, k)
		a := per[c.scheme]
		if a == nil {
			a = &agg{}
			per[c.scheme] = a
		}
		for _, x := range []*agg{a, &all} {
			x.pred += p * c.counts.Accesses
			x.meas += meas * c.counts.Accesses
			x.acc += c.counts.Accesses
		}
	}
	schemes := make([]string, 0, len(per))
	for s := range per {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	for _, s := range schemes {
		a := per[s]
		p, m := a.pred/a.acc, a.meas/a.acc
		r := residualPct(m, p)
		tag := ""
		if math.Abs(r) > 15 {
			tag = "  finding: residual above 15%"
		}
		fmt.Fprintf(b.log, "closure %-9s predicted %8.1f ns/access  measured %8.1f  residual %6.1f%%%s\n", s, p, m, r, tag)
	}
	if all.acc == 0 {
		return 0, 0
	}
	return all.pred / all.acc, residualPct(all.meas/all.acc, all.pred/all.acc)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// sinceNs is the host nanoseconds since sw started.
func sinceNs(sw wallclock.Stopwatch) float64 { return sw.Seconds() * 1e9 }
