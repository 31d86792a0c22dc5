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
//	lvmbench              # full scale (about 80 s on two cores)
//	lvmbench -quick       # reduced scale (seconds)
//	lvmbench -only fig9,table2
//	lvmbench -j 8 -mem 64 # 8 workers under a 64 GiB simulated-memory budget
//	lvmbench -list        # print the plan (experiments + run matrix + costs), no execution
//	lvmbench -quick -json out.json            # also write per-run metrics JSON
//	lvmbench -quick -json out.json -timings   # include host wall-clock fields
//	lvmbench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	lvmbench -cache ~/.cache/lvmbench         # persist run outputs; warm reruns skip sims
//
// The -json document is schema-versioned and byte-identical at any -j
// (unless -timings adds the machine-dependent host_seconds fields); CI
// diffs it against the committed bench_baseline.json with cmd/benchgate.
// A warm -cache sweep re-simulates nothing while emitting identical bytes
// (see EXPERIMENTS.md "Caching sweeps").
//
// The -cpuprofile/-memprofile flags capture pprof profiles of the whole
// sweep (see EXPERIMENTS.md "Profiling the hot path" for the workflow).
// Profiling does not perturb the simulated results — the gathered tables
// and -json output stay byte-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lvm/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced workload scale")
	only := flag.String("only", "", "comma-separated experiment keys: "+strings.Join(experiments.Keys(), ", "))
	workers := flag.Int("j", runtime.NumCPU(), "simulation worker goroutines")
	memGiB := flag.Uint64("mem", 0, "memory budget in GiB bounding the summed simulated footprint of in-flight runs (0 = default 32)")
	list := flag.Bool("list", false, "print the selected experiments and deduped run matrix with estimated costs, then exit without executing")
	jsonPath := flag.String("json", "", "write per-run metrics as schema-versioned JSON to this path")
	timings := flag.Bool("timings", false, "include host wall-clock fields in -json output (breaks byte-identity across invocations)")
	cacheDir := flag.String("cache", "", "persistent run-output cache directory; completed runs are stored there and warm sweeps skip their simulations")
	warmup := flag.Int("warmup", 0, "fast-forward the first N accesses of every run through functional state before measuring (changes measured counters; part of the run key and config fingerprint)")
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

	if err := run(options{
		quick:    *quick,
		only:     *only,
		workers:  *workers,
		memGiB:   *memGiB,
		list:     *list,
		jsonPath: *jsonPath,
		timings:  *timings,
		cacheDir: *cacheDir,
		warmup:   *warmup,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "lvmbench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	quick    bool
	only     string
	workers  int
	memGiB   uint64
	list     bool
	jsonPath string
	timings  bool
	cacheDir string
	warmup   int
}

func run(o options) error {
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

	if o.list {
		return printPlan(r, plan)
	}

	opt := experiments.ExecOptions{
		Workers:        o.workers,
		MemBudgetBytes: o.memGiB << 30,
	}
	if o.cacheDir != "" {
		opt.Cache, err = experiments.NewRunCache(o.cacheDir, cfg)
		if err != nil {
			return err
		}
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
func printPlan(r *experiments.Runner, p experiments.Plan) error {
	fmt.Printf("experiments (%d):\n", len(p.Experiments))
	for _, e := range p.Experiments {
		fmt.Printf("  %-14s %s\n", e.Key, e.Title)
	}

	costs, err := r.EstimateCosts(p)
	if err != nil {
		return err
	}
	fmt.Printf("runs (%d deduped):\n", len(p.Runs))
	for i, k := range p.Runs {
		fmt.Printf("  %-28s %8.2f GiB\n", k.String(), float64(costs[i])/(1<<30))
	}
	return nil
}
