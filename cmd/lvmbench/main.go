// Command lvmbench regenerates every table and figure of the paper's
// evaluation (§7) and prints them in order. This is the reproduction's
// headline artifact: run it and compare against EXPERIMENTS.md.
//
// The pipeline is plan/execute: the selected experiments declare the
// simulations they need, the scheduler dedupes that run matrix and
// executes it on -j workers under a memory budget, and the tables are
// rendered afterwards in registry order. Tables go to stdout and are
// bit-for-bit identical at any -j; progress and timings go to stderr.
//
// Usage:
//
//	lvmbench              # full scale (several minutes)
//	lvmbench -quick       # reduced scale (seconds)
//	lvmbench -only fig9,table2
//	lvmbench -j 8 -mem 64 # 8 workers under a 64 GiB simulated-memory budget
//	lvmbench -list        # print the plan (experiments + run matrix + costs), no execution
//	lvmbench -quick -json out.json            # also write per-run metrics JSON
//	lvmbench -quick -json out.json -timings   # include host wall-clock fields
//	lvmbench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Scale-out sweeps split the execute phase across hosts and skip repeated
// work (see EXPERIMENTS.md "Sharding and caching sweeps"):
//
//	lvmbench -shard 0/2 -json part0.json      # this host's partition only
//	lvmbench -shard 1/2 -json part1.json      # another host's partition
//	lvmbench -merge part0.json,part1.json     # recombine: tables + optional -json
//	lvmbench -cache ~/.cache/lvmbench         # persist run outputs; warm reruns skip sims
//	lvmbench -shard 0/2 -list                 # show the cost-balanced assignment
//
// The orchestrator runs the same sweep across live worker processes
// instead of pre-partitioned shards (see EXPERIMENTS.md "Orchestrated
// sweeps"): the coordinator owns the plan and hands runs out cost-aware
// largest-first, idle workers steal from stragglers, failures retry on a
// different worker, and completed runs stream into -cache so an
// interrupted sweep resumes without re-simulating:
//
//	lvmbench -serve 127.0.0.1:7077 -cache dir -json out.json   # coordinator
//	lvmbench -worker 127.0.0.1:7077 -j 8                       # each worker host
//
// The -json document is schema-versioned and byte-identical at any -j
// (unless -timings adds the machine-dependent host_seconds fields); CI
// diffs it against the committed bench_baseline.json with cmd/benchgate.
// A merged document is byte-identical to an unsharded run's, and a warm
// -cache sweep re-simulates nothing while emitting identical bytes.
//
// The -cpuprofile/-memprofile flags capture pprof profiles of the whole
// sweep (see EXPERIMENTS.md "Profiling the hot path" for the workflow).
// Profiling does not perturb the simulated results — the gathered tables
// and -json output stay byte-identical.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lvm/internal/experiments"
	"lvm/internal/experiments/orch"
)

func main() {
	quick := flag.Bool("quick", false, "reduced workload scale")
	only := flag.String("only", "", "comma-separated experiment keys: "+strings.Join(experiments.Keys(), ", "))
	workers := flag.Int("j", runtime.NumCPU(), "simulation worker goroutines")
	memGiB := flag.Uint64("mem", 0, "memory budget in GiB bounding the summed simulated footprint of in-flight runs (0 = default 32)")
	list := flag.Bool("list", false, "print the selected experiments and deduped run matrix with estimated costs, then exit without executing")
	jsonPath := flag.String("json", "", "write per-run metrics as schema-versioned JSON to this path (with -shard: the partial shard document)")
	timings := flag.Bool("timings", false, "include host wall-clock fields in -json output (breaks byte-identity across invocations)")
	shard := flag.String("shard", "", "execute only shard i/n of the run matrix (deterministic cost-balanced partition) and write a partial document to -json")
	merge := flag.String("merge", "", "comma-separated shard documents to recombine; computes tables exactly as an unsharded run would")
	cacheDir := flag.String("cache", "", "persistent run-output cache directory; completed runs are stored there and warm sweeps skip their simulations")
	warmup := flag.Int("warmup", 0, "fast-forward the first N accesses of every run through functional state before measuring (changes measured counters; part of the run key and config fingerprint)")
	serve := flag.String("serve", "", "listen on this address as the sweep coordinator: dispatch the plan's runs to -worker processes, then render tables locally")
	worker := flag.String("worker", "", "connect to a coordinator at this address and execute assigned runs with -j local workers until the sweep shuts down")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile taken after the sweep to this path")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvmbench: creating %s: %v\n", *cpuprofile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lvmbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvmbench: creating %s: %v\n", *memprofile, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lvmbench: writing heap profile: %v\n", err)
			os.Exit(1)
		}
	}()

	jExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "j" {
			jExplicit = true
		}
	})

	if err := run(options{
		quick:     *quick,
		only:      *only,
		workers:   *workers,
		jExplicit: jExplicit,
		memGiB:    *memGiB,
		list:      *list,
		jsonPath:  *jsonPath,
		timings:   *timings,
		shard:     *shard,
		merge:     *merge,
		cacheDir:  *cacheDir,
		warmup:    *warmup,
		serve:     *serve,
		worker:    *worker,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "lvmbench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	quick     bool
	only      string
	workers   int
	jExplicit bool
	memGiB    uint64
	list      bool
	jsonPath  string
	timings   bool
	shard     string
	merge     string
	cacheDir  string
	warmup    int
	serve     string
	worker    string
}

func run(o options) error {
	if o.worker != "" {
		switch {
		case o.serve != "":
			return fmt.Errorf("-worker and -serve are mutually exclusive: a process is either a coordinator or a worker")
		case o.shard != "", o.merge != "", o.list:
			return fmt.Errorf("-worker takes its runs from the coordinator; -shard/-merge/-list do not apply")
		case o.jsonPath != "", o.cacheDir != "", o.only != "":
			return fmt.Errorf("-json/-cache/-only belong on the coordinator; the worker only executes assigned runs")
		}
		return runWorker(o)
	}
	if o.serve != "" && (o.shard != "" || o.merge != "" || o.list) {
		return fmt.Errorf("-serve owns the whole plan; -shard/-merge/-list do not apply")
	}

	if o.merge != "" {
		if o.shard != "" {
			return fmt.Errorf("-merge and -shard are mutually exclusive: shards execute, merge recombines")
		}
		if o.list {
			return fmt.Errorf("-merge and -list are mutually exclusive")
		}
		return runMerge(o)
	}

	cfg := experiments.Default()
	if o.quick {
		cfg = experiments.Quick()
	}
	cfg.Warmup = o.warmup

	var keys []string
	if o.only != "" {
		keys = strings.Split(o.only, ",")
	}
	exps, err := experiments.Select(keys...)
	if err != nil {
		return err
	}

	r := experiments.NewRunner(cfg)
	r.SetSink(experiments.NewWriterSink(os.Stderr))
	plan := experiments.NewPlan(cfg, exps)

	var spec experiments.ShardSpec
	if o.shard != "" {
		spec, err = experiments.ParseShard(o.shard)
		if err != nil {
			return err
		}
	}

	if o.list {
		return printPlan(r, plan, o, spec)
	}

	opt := experiments.ExecOptions{
		Workers:        o.workers,
		MemBudgetBytes: o.memGiB << 30,
		Shard:          spec,
	}
	if o.cacheDir != "" {
		opt.Cache, err = experiments.NewRunCache(o.cacheDir, cfg)
		if err != nil {
			return err
		}
	}

	if o.serve != "" {
		ln, err := net.Listen("tcp", o.serve)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		defer ln.Close() // Serve closes it too; this covers the fully-warm early return
		fmt.Fprintf(os.Stderr, "plan: %d experiments, %d deduped runs, serving on %s\n",
			len(plan.Experiments), len(plan.Runs), ln.Addr())
		if err := orch.Serve(ln, r, plan, orch.Options{Cache: opt.Cache}); err != nil {
			return err
		}
		// Every run is installed now; ExecutePlan below dispatches zero
		// simulations and renders the tables exactly as an unsharded run.
		results, err := r.ExecutePlan(plan, opt)
		if err != nil {
			return err
		}
		for _, res := range results {
			fmt.Print(res.Render())
		}
		return writeRunsJSON(r, plan, o)
	}

	if o.shard != "" {
		if o.jsonPath == "" {
			return fmt.Errorf("-shard requires -json: the partial document is the shard's only output")
		}
		fmt.Fprintf(os.Stderr, "plan: %d experiments, %d deduped runs, shard %s, %d workers\n",
			len(plan.Experiments), len(plan.Runs), spec, o.workers)
		if err := r.ExecuteRuns(plan, opt); err != nil {
			return err
		}
		b, err := r.ShardJSON(plan, keys, spec, experiments.RunJSONOptions{Timings: o.timings})
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, b, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", o.jsonPath, err)
		}
		fmt.Fprintf(os.Stderr, "wrote shard %s to %s\n", spec, o.jsonPath)
		return nil
	}

	fmt.Fprintf(os.Stderr, "plan: %d experiments, %d deduped runs, %d workers\n",
		len(plan.Experiments), len(plan.Runs), o.workers)

	results, err := r.ExecutePlan(plan, opt)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Print(res.Render())
	}

	return writeRunsJSON(r, plan, o)
}

// runMerge recombines shard documents, computes every table over the
// merged run matrix (nothing re-executes: the documents carry all runs),
// and optionally re-emits the unsharded-identical -json document.
func runMerge(o options) error {
	var files []experiments.ShardFile
	for _, name := range strings.Split(o.merge, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, err := os.ReadFile(name)
		if err != nil {
			return fmt.Errorf("merge: reading %s: %w", name, err)
		}
		files = append(files, experiments.ShardFile{Name: name, Data: b})
	}
	r, plan, err := experiments.MergeShards(files)
	if err != nil {
		return err
	}
	r.SetSink(experiments.NewWriterSink(os.Stderr))
	fmt.Fprintf(os.Stderr, "merged %d shard(s): %d experiments, %d runs\n",
		len(files), len(plan.Experiments), len(plan.Runs))

	results, err := r.ExecutePlan(plan, experiments.ExecOptions{
		Workers:        o.workers,
		MemBudgetBytes: o.memGiB << 30,
	})
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Print(res.Render())
	}

	return writeRunsJSON(r, plan, o)
}

// runWorker connects to a coordinator and executes assigned runs until the
// sweep shuts down. The worker builds its config from the same scale flags
// as the coordinator (-quick/-warmup); the handshake's config
// fingerprint catches any mismatch before a single run is dispatched.
func runWorker(o options) error {
	cfg := experiments.Default()
	if o.quick {
		cfg = experiments.Quick()
	}
	cfg.Warmup = o.warmup
	fp, err := cfg.Fingerprint()
	if err != nil {
		return err
	}

	r := experiments.NewRunner(cfg)
	r.SetSink(experiments.NewWriterSink(os.Stderr))
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	w := &orch.Worker{
		Exec:        r.ExecuteKey,
		Fingerprint: fp,
		Name:        fmt.Sprintf("%s:%d", host, os.Getpid()),
		Capacity:    o.workers,
		BudgetBytes: o.memGiB << 30,
	}
	fmt.Fprintf(os.Stderr, "worker %s: connecting to %s (%d slots)\n", w.Name, o.worker, o.workers)
	return w.Run(o.worker)
}

func writeRunsJSON(r *experiments.Runner, plan experiments.Plan, o options) error {
	if o.jsonPath == "" {
		return nil
	}
	b, err := r.RunsJSON(plan, experiments.RunJSONOptions{Timings: o.timings})
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.jsonPath, b, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", o.jsonPath, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d runs to %s\n", len(plan.Runs), o.jsonPath)
	return nil
}

// printPlan renders the plan phase without executing or building anything:
// the selected experiments in registry order and the deduped run matrix in
// plan (first-appearance) order with each run's estimated scheduler cost.
// Under -shard i/n the cost-balanced shard assignment is shown per run
// (with this shard's rows marked); otherwise an explicit -j previews how
// the LPT partition would spread the matrix across that many bins.
func printPlan(r *experiments.Runner, p experiments.Plan, o options, spec experiments.ShardSpec) error {
	fmt.Printf("experiments (%d):\n", len(p.Experiments))
	for _, e := range p.Experiments {
		fmt.Printf("  %-14s %s\n", e.Key, e.Title)
	}

	costs, err := r.EstimateCosts(p)
	if err != nil {
		return err
	}
	bins := 0
	label := ""
	switch {
	case o.shard != "":
		bins, label = spec.Count, "shard"
	case o.jExplicit && o.workers > 1:
		bins, label = o.workers, "worker"
	}
	var assign []int
	if bins > 1 {
		assign = experiments.AssignShards(costs, bins)
	}

	fmt.Printf("runs (%d deduped):\n", len(p.Runs))
	for i, k := range p.Runs {
		line := fmt.Sprintf("  %-28s %8.2f GiB", k.String(), float64(costs[i])/(1<<30))
		if assign != nil {
			line += fmt.Sprintf("  %s %d", label, assign[i])
			if o.shard != "" && assign[i] == spec.Index {
				line += "  *"
			}
		}
		fmt.Println(line)
	}
	if assign != nil {
		loads := make([]uint64, bins)
		counts := make([]int, bins)
		for i, s := range assign {
			loads[s] += costs[i]
			counts[s]++
		}
		fmt.Printf("%s totals:\n", label)
		for s := 0; s < bins; s++ {
			mark := ""
			if o.shard != "" && s == spec.Index {
				mark = "  * (this shard)"
			}
			fmt.Printf("  %s %d: %d runs, %8.2f GiB%s\n", label, s, counts[s], float64(loads[s])/(1<<30), mark)
		}
	}
	return nil
}
