package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"lvm/internal/experiments"
	"lvm/internal/metrics"
	"lvm/internal/oskernel"
	"lvm/internal/sim"
	"lvm/internal/wallclock"
	"lvm/internal/workload"
)

const (
	// warmPrefix is the fast-forwarded prefix of a replay cell, the warmup
	// bench_baseline_warmup.json was recorded with.
	warmPrefix = 50_000
	// quickLen is the quick configuration's trace length.
	quickLen = 200_000
	// hitLen is replay-hit's longer trace: TLB hits are cheap, so the cell
	// needs more accesses for its timed region to outweigh set-up.
	hitLen = 1_000_000
	// windowEvery is the interval window, in accesses, of traced steps and
	// of every lvmd session.
	windowEvery = 4096
	// chunkLen is the accesses of one separately timed chunk of a measured
	// region. Each chunk is reduced to its fastest pass, and at a few
	// milliseconds a chunk is short enough that some pass runs it between
	// the host's bursts of contention.
	chunkLen = 16384
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// pass runs one set-up-and-measure pass of the workload at seed.
	pass func(b *bench, wd *workloadDef, seed int64, ps *passStats) error
	// cells are the workload's cells; for serve, the cells the traced
	// run's layer ledger prices.
	cells []cellSpec
	// reps is how many times a pass simulates each cell's measured region.
	reps int
	// serve marks the lvmd workload: its passes simulate no cells locally,
	// so the ledger runs its cells itself, and it needs no lvmd probe.
	serve bool
	// churn marks the workload whose passes time the page-table write
	// path, so the ledger need not probe it.
	churn bool
}

var workloads = map[string]*workloadDef{
	"replay-miss": {
		name:  "replay-miss",
		pass:  replayPass,
		cells: allSchemeCells([]string{"gups", "mem$"}, false, quickLen, warmPrefix),
		reps:  2,
	},
	"replay-hit": {
		name:  "replay-hit",
		pass:  replayPass,
		cells: allSchemeCells([]string{"bfs"}, true, hitLen, warmPrefix),
		reps:  4,
	},
	"serve": {
		name:  "serve",
		pass:  servePass,
		cells: allSchemeCells([]string{"mem$"}, false, quickLen, warmPrefix),
		serve: true,
	},
	"churn": {
		name:  "churn",
		pass:  churnPass,
		cells: churnCells(),
		reps:  3,
		churn: true,
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// cellSpec is one simulated cell: a workload on one scheme.
type cellSpec struct {
	Workload string
	Scheme   oskernel.Scheme
	THP      bool
	TraceLen int
	// Warm is the fast-forwarded prefix; the timed region is the rest.
	Warm int
	// Churn marks a cell run under churn's management bursts.
	Churn bool
}

// key names the cell's simulated outcome in reference.json.
func (c cellSpec) key() string {
	thp := ""
	if c.THP {
		thp = "+thp"
	}
	k := fmt.Sprintf("%s/%s%s/len=%d/warm=%d", c.Workload, c.Scheme, thp, c.TraceLen, c.Warm)
	if c.Churn {
		k += "/churn"
	}
	return k
}

// scalar reports whether the cell's simulation takes the scalar per-access
// path (Walk) instead of the batched pipeline (Lookup + WalkBatch): hooked
// runs and Midgard do.
func (c cellSpec) scalar() bool { return c.Churn || c.Scheme == oskernel.SchemeMidgard }

func allSchemeCells(names []string, thp bool, traceLen, warm int) []cellSpec {
	var out []cellSpec
	for _, n := range names {
		for _, s := range oskernel.AllSchemes() {
			out = append(out, cellSpec{Workload: n, Scheme: s, THP: thp, TraceLen: traceLen, Warm: warm})
		}
	}
	return out
}

// churnCells are mem$ on every scheme, run cold through RunTail.
func churnCells() []cellSpec {
	cells := allSchemeCells([]string{"mem$"}, false, quickLen, 0)
	for i := range cells {
		cells[i].Churn = true
	}
	return cells
}

// quickConfig is the quick experiment configuration at seed and trace
// length.
func quickConfig(seed int64, traceLen int) experiments.Config {
	cfg := experiments.Quick()
	cfg.Params.Seed = seed
	cfg.Params.TraceLen = traceLen
	return cfg
}

// buildAll builds each distinct workload of cells at seed, timing every
// build as set-up.
func (b *bench) buildAll(cells []cellSpec, seed int64, ps *passStats) (map[string]*workload.Workload, error) {
	wls := map[string]*workload.Workload{}
	for _, c := range cells {
		if wls[c.Workload] != nil {
			continue
		}
		t := wallclock.Start()
		w, err := workload.Build(c.Workload, quickConfig(seed, c.TraceLen).Params)
		s := t.Seconds()
		if err != nil {
			return nil, err
		}
		// Traced passes and the ledger rebuild inputs an earlier pass built,
		// which the in-process graph cache makes cheap: only untraced
		// passes price a build.
		if ps != nil && !ps.traced {
			b.l.sample("workload.build_s", s)
		}
		if ps != nil {
			ps.setupS += s
		}
		wls[c.Workload] = w
	}
	return wls, nil
}

// replayPass runs every cell in turn on one goroutine: launch, fast-forward
// the warm prefix, then Session.Step over the rest, reps times.
func replayPass(b *bench, wd *workloadDef, seed int64, ps *passStats) error {
	wls, err := b.buildAll(wd.cells, seed, ps)
	if err != nil {
		return err
	}
	for _, c := range wd.cells {
		b.replayCell(c, wls[c.Workload], seed, wd.reps, ps)
		runtime.GC()
	}
	return nil
}

// replayCell simulates one cell on a fresh machine and checks its outcome.
// The measured region is stepped reps times, each a new session on the
// same machine: the first starts from the fast-forwarded state, the later
// ones from the state the previous session left. In a traced pass the step
// runs in window-sized chunks, each followed by the metric-window cut lvmd
// makes per interval.
func (b *bench) replayCell(c cellSpec, w *workload.Workload, seed int64, reps int, ps *passStats) {
	scheme := string(c.Scheme)
	cfg := quickConfig(seed, c.TraceLen)
	t := wallclock.Start()
	_, _, cpu, err := cfg.NewRunMachine(w, c.Scheme, c.THP)
	launch := t.Seconds()
	if err != nil {
		b.chk.fail(c.key(), err)
		return
	}
	b.l.sample("oskernel.launch_s."+scheme, launch)

	t = wallclock.Start()
	n := cpu.FastForward(1, w, c.Warm)
	ff := t.Seconds()
	if n > 0 {
		b.l.add("sim.fastforward_ns", ff*1e9, float64(n))
	}
	ps.setupS += launch + ff

	b.settle(ps)
	for r := 0; r < reps; r++ {
		t = wallclock.Start()
		sess := cpu.NewSessionFrom(1, w, n)
		var laps []float64
		if ps.traced {
			b.tracedSteps(cpu, sess, scheme)
		} else {
			for !sess.Done() {
				sess.Step(chunkLen)
				laps = append(laps, t.Seconds())
			}
		}
		res := sess.Finish()
		step := t.Seconds()
		if !ps.traced {
			b.l.add("sim.step_ns."+scheme, step*1e9, float64(res.Accesses))
		}
		chunks := chunksOf(laps, step)
		ps.timed(float64(res.Accesses), chunks)
		ps.latencies = append(ps.latencies, chunks)
		ps.simCycles += res.Cycles
		ps.simAccesses += float64(res.Accesses)
		b.checkResult(c, r, seed, res.Metrics, nil, uint64(len(w.Accesses)-n))
	}
}

// tracedSteps drives a session in window-sized chunks, timing each Step
// and each window cut.
func (b *bench) tracedSteps(cpu *sim.CPU, sess *sim.Session, scheme string) {
	prev := cpu.Snapshot()
	for !sess.Done() {
		t := wallclock.Start()
		k := sess.Step(windowEvery)
		b.l.add("sim.step_ns."+scheme, sinceNs(t), float64(k))
		prev, _ = b.cutWindow(cpu, prev)
	}
}

// cutWindow takes one metric-window cut as lvmd does per interval:
// Snapshot, Delta against prev, Marshal. It returns the new snapshot and
// the cut's host seconds.
func (b *bench) cutWindow(cpu *sim.CPU, prev metrics.Set) (metrics.Set, float64) {
	t := wallclock.Start()
	cur := cpu.Snapshot()
	if _, err := json.Marshal(cur.Delta(prev)); err != nil {
		b.chk.fail("window", err)
	}
	s := t.Seconds()
	b.l.add("metrics.window_us", s*1e6, 1)
	return cur, s
}

// checkResult checks the outcome of a cell's rep-th measured run and, for
// the first run of pass 0, keeps its counts for the closure model.
func (b *bench) checkResult(c cellSpec, rep int, seed int64, m metrics.Set, extra map[string]float64, wantAccesses uint64) {
	key := c.key()
	if rep > 0 {
		key = fmt.Sprintf("%s/rep=%d", key, rep)
	}
	mj, err := m.MarshalJSON()
	if err != nil {
		b.chk.fail(key, err)
		return
	}
	d, all, err := digestOf(mj, extra)
	if err != nil {
		b.chk.fail(key, err)
		return
	}
	b.chk.outcome(key, seed, d, wantAccesses)
	if b.pass == 0 && rep == 0 {
		b.recordCounts(string(c.Scheme), c.scalar(), all)
	}
}

// recordCounts adds one cell's simulated counts to the closure model and to
// the count.* metrics.
func (b *bench) recordCounts(scheme string, scalar bool, m map[string]float64) {
	hits := func(lv string) float64 { return m["cache."+lv+".demand_hits"] + m["cache."+lv+".walk_hits"] }
	cc := cellCounts{
		Accesses: m["run.accesses"],
		L2Misses: m["run.l2_tlb_misses"],
		Served:   [4]float64{hits("l1"), hits("l2"), hits("l3"), m["dram.accesses"]},
	}
	b.closureCells = append(b.closureCells, closureCell{scheme: scheme, scalar: scalar, counts: cc})
	b.l.add("count.l2_tlb_misses_per_access", cc.L2Misses, cc.Accesses)
	b.l.add("count.walk_refs_per_walk", m["walk.refs"], m["walk.walks"])
	for i, lv := range cacheLevels[:3] {
		b.l.add("count.cache_"+lv+"_per_access", cc.Served[i], cc.Accesses)
	}
	b.l.add("count.dram_per_access", cc.Served[3], cc.Accesses)
	if lh, lm := m["walk.lwc.hits"], m["walk.lwc.misses"]; lh+lm > 0 {
		b.l.add("count.lwc_hit_ratio", lh, lh+lm)
	}
}
