package experiments

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lvm/internal/metrics"
	"lvm/internal/oskernel"
	"lvm/internal/sim"
)

func TestParseShard(t *testing.T) {
	good := map[string]ShardSpec{
		"0/1":   {0, 1},
		"0/2":   {0, 2},
		"1/2":   {1, 2},
		"2/3":   {2, 3},
		" 1/ 4": {1, 4},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil {
			t.Errorf("ParseShard(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseShard(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"", "1", "a/2", "1/b", "2/2", "-1/2", "0/0", "1/-3"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted", in)
		}
	}
}

func TestAssignShardsDeterministicAndComplete(t *testing.T) {
	costs := []uint64{100, 100, 50, 900, 25, 25, 300, 100}
	for n := 1; n <= 4; n++ {
		a := AssignShards(costs, n)
		b := AssignShards(costs, n)
		if len(a) != len(costs) {
			t.Fatalf("n=%d: %d assignments for %d runs", n, len(a), len(costs))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: assignment not deterministic at run %d", n, i)
			}
			if a[i] < 0 || a[i] >= n {
				t.Fatalf("n=%d: run %d assigned to shard %d", n, i, a[i])
			}
		}
	}
	// n=1 puts everything on shard 0.
	for i, s := range AssignShards(costs, 1) {
		if s != 0 {
			t.Errorf("n=1: run %d on shard %d", i, s)
		}
	}
}

func TestAssignShardsBalanced(t *testing.T) {
	// LPT on equal costs must spread runs evenly; the heavy-run case must
	// not stack heavies on one shard.
	equal := []uint64{10, 10, 10, 10, 10, 10}
	counts := make([]int, 3)
	for _, s := range AssignShards(equal, 3) {
		counts[s]++
	}
	for s, c := range counts {
		if c != 2 {
			t.Errorf("equal costs: shard %d has %d runs, want 2", s, c)
		}
	}

	skewed := []uint64{900, 800, 10, 10, 10, 10}
	loads := make([]uint64, 2)
	for i, s := range AssignShards(skewed, 2) {
		loads[s] += skewed[i]
	}
	if loads[0] == 0 || loads[1] == 0 {
		t.Fatalf("a shard got nothing: %v", loads)
	}
	if max(loads[0], loads[1]) > 1000 {
		t.Errorf("heavies stacked: loads %v", loads)
	}
}

func TestEstimateCostsMatchRunBytes(t *testing.T) {
	// Cross-host determinism hinges on estimated costs being exactly the
	// scheduler costs a host that builds the workloads would compute.
	cfg := jsonSweepConfig()
	r := NewRunner(cfg)
	p := jsonSweepPlan(cfg)
	costs, err := r.EstimateCosts(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range p.Runs {
		w, err := r.Workload(k.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if costs[i] != r.runBytes(w) {
			t.Errorf("%s: estimated cost %d, built cost %d", k, costs[i], r.runBytes(w))
		}
	}
	if _, err := r.EstimateCosts(Plan{Runs: []RunKey{{Workload: "nope", Scheme: oskernel.SchemeLVM}}}); err == nil {
		t.Error("unknown workload estimated without error")
	}
}

func TestExecutePlanRejectsShard(t *testing.T) {
	r := NewRunner(jsonSweepConfig())
	_, err := r.ExecutePlan(jsonSweepPlan(r.Cfg), ExecOptions{Workers: 1, Shard: ShardSpec{0, 2}})
	if err == nil {
		t.Fatal("ExecutePlan accepted a shard spec")
	}
}

// fakeOutput builds a distinguishable RunOutput without simulating, for
// serialization and merge tests.
func fakeOutput(k RunKey, i int) *RunOutput {
	var m metrics.Set
	m.Counter("tlb.l2.misses", uint64(100+13*i))
	m.Counter("dram.accesses", uint64(7*i))
	m.Gauge("run.ipc", 0.25+0.125*float64(i))
	m.Gauge("tlb.l2.miss_rate", float64(i)/17)
	return &RunOutput{
		Sim: sim.Result{
			Workload:     k.Workload,
			Scheme:       string(k.Scheme),
			Instructions: uint64(1000 + i),
			Accesses:     uint64(500 + i),
			Cycles:       1234.5 + float64(i)/3,
			WalkCycles:   88.25 * float64(i),
			Walks:        uint64(40 * i),
			Metrics:      m,
		},
		IndexBytes:     16 * i,
		IndexPeakBytes: 32 * i,
		IndexDepth:     1 + i%2,
		IndexLeaves:    i,
		LWCHitRate:     1 - float64(i)/64,
		Retrains:       uint64(i),
		Rebuilds:       uint64(i % 2),
		Overflows:      uint64(i % 3),
		MgmtCycles:     uint64(11 * i),
		PWCPDEMissRate: float64(i) / 9,
		OverheadBytes:  uint64(13 * i),
		CollisionRate:  float64(i) / 100,
		ExtraPerColl:   float64(i%2) + 1,
		HostSeconds:    1.5 + float64(i),
	}
}

// shardCaches fills one run cache per shard of the walkcaches plan with
// fabricated outputs, as n hosts running lvmbench -shard i/n -cache would,
// and returns the source runner, the plan, the n-way assignment and the
// cache roots. Nothing is simulated, so every merge case runs at unit-test
// speed.
func shardCaches(t *testing.T, cfg Config, n int) (*Runner, Plan, []int, []string) {
	t.Helper()
	exps, err := Select("walkcaches")
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(cfg, exps)
	r := NewRunner(cfg)
	assign, err := r.AssignPlan(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]string, n)
	caches := make([]*RunCache, n)
	for s := range roots {
		roots[s] = t.TempDir()
		if caches[s], err = NewRunCache(roots[s], cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range plan.Runs {
		out := fakeOutput(k, i)
		r.installRun(k, out)
		if err := caches[assign[i]].Store(k, out); err != nil {
			t.Fatal(err)
		}
	}
	return r, plan, assign, roots
}

// copyCache copies every file under src into dst, overwriting, like
// cp -r src/. dst/.
func copyCache(t *testing.T, dst, src string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mergeShardCaches copies the given cache roots into one and restores
// plan from it under cfg, the way a warm sweep does: the runner holds
// every run the merged cache supplied, and missing lists the runs a warm
// sweep would simulate again.
func mergeShardCaches(t *testing.T, cfg Config, plan Plan, roots ...string) (r *Runner, missing []RunKey, err error) {
	t.Helper()
	dst := t.TempDir()
	for _, root := range roots {
		copyCache(t, dst, root)
	}
	c, err := NewRunCache(dst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r = NewRunner(cfg)
	for _, k := range plan.Runs {
		out, hit, err := c.Load(k)
		if err != nil {
			return nil, nil, err
		}
		if hit {
			r.installRun(k, out)
		} else {
			missing = append(missing, k)
		}
	}
	return r, missing, nil
}

// wantMerged checks that merging roots restores every run of plan and
// renders the source runner's document byte for byte.
func wantMerged(t *testing.T, src *Runner, plan Plan, opt RunJSONOptions, roots ...string) {
	t.Helper()
	merged, missing, err := mergeShardCaches(t, src.Cfg, plan, roots...)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("merged caches miss %v", missing)
	}
	want, err := src.RunsJSON(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.RunsJSON(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged document differs from the source runner's\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// wantMergeError checks that merging roots fails with an error naming
// every substring.
func wantMergeError(t *testing.T, cfg Config, plan Plan, roots []string, substrings ...string) {
	t.Helper()
	_, _, err := mergeShardCaches(t, cfg, plan, roots...)
	if err == nil {
		t.Fatalf("merge accepted a bad shard cache (wanted error mentioning %q)", substrings)
	}
	for _, s := range substrings {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("error %q does not mention %q", err, s)
		}
	}
}

// shardEntry returns the path of run i's entry in its shard's cache.
func shardEntry(t *testing.T, cfg Config, plan Plan, assign []int, roots []string, i int) string {
	t.Helper()
	c, err := NewRunCache(roots[assign[i]], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.entryPath(plan.Runs[i])
}

func TestMergeShardsRoundTrip(t *testing.T) {
	for n := 1; n <= 3; n++ {
		src, plan, _, roots := shardCaches(t, jsonSweepConfig(), n)
		wantMerged(t, src, plan, RunJSONOptions{Timings: true}, roots...)
	}
}

func TestMergeShardsSchemaMismatch(t *testing.T) {
	cfg := jsonSweepConfig()
	_, plan, assign, roots := shardCaches(t, cfg, 2)
	path := shardEntry(t, cfg, plan, assign, roots, 1)
	rewriteEntry(t, path, func(e *cacheEntry) { e.SchemaVersion = RunJSONSchemaVersion - 1 })
	wantMergeError(t, cfg, plan, roots, plan.Runs[1].String(), filepath.Base(path), "schema")
}

func TestMergeShardsCorruptDocument(t *testing.T) {
	cfg := jsonSweepConfig()
	_, plan, assign, roots := shardCaches(t, cfg, 2)
	path := shardEntry(t, cfg, plan, assign, roots, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil { // truncate mid-JSON
		t.Fatal(err)
	}
	wantMergeError(t, cfg, plan, roots, plan.Runs[0].String(), filepath.Base(path), "corrupt")
}

// A document that is not a cache entry — here the -json run document —
// copied over an entry is refused, not read as one.
func TestMergeShardsNotAShardDocument(t *testing.T) {
	cfg := jsonSweepConfig()
	src, plan, assign, roots := shardCaches(t, cfg, 2)
	flat, err := src.RunsJSON(plan, RunJSONOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := shardEntry(t, cfg, plan, assign, roots, 0)
	if err := os.WriteFile(path, flat, 0o644); err != nil {
		t.Fatal(err)
	}
	wantMergeError(t, cfg, plan, roots, plan.Runs[0].String(), filepath.Base(path))
}

// Copying one shard's cache twice is harmless: the copies are the same
// files.
func TestMergeShardsDuplicateShardIndex(t *testing.T) {
	src, plan, _, roots := shardCaches(t, jsonSweepConfig(), 2)
	wantMerged(t, src, plan, RunJSONOptions{Timings: true}, roots[0], roots[1], roots[0])
}

// A missing shard leaves exactly its runs to simulate again: slower, never
// a wrong table.
func TestMergeShardsMissingShard(t *testing.T) {
	cfg := jsonSweepConfig()
	_, plan, assign, roots := shardCaches(t, cfg, 3)
	_, missing, err := mergeShardCaches(t, cfg, plan, roots[:2]...)
	if err != nil {
		t.Fatal(err)
	}
	var want []RunKey
	for i, k := range plan.Runs {
		if assign[i] == 2 {
			want = append(want, k)
		}
	}
	if !slices.Equal(missing, want) {
		t.Errorf("without shard 2 the merge misses %v, want shard 2's runs %v", missing, want)
	}
}

func TestMergeShardsMissingRun(t *testing.T) {
	cfg := jsonSweepConfig()
	_, plan, assign, roots := shardCaches(t, cfg, 2)
	if err := os.Remove(shardEntry(t, cfg, plan, assign, roots, 0)); err != nil {
		t.Fatal(err)
	}
	_, missing, err := mergeShardCaches(t, cfg, plan, roots...)
	if err != nil {
		t.Fatal(err)
	}
	if want := plan.Runs[:1]; !slices.Equal(missing, want) {
		t.Errorf("merge misses %v, want %v", missing, want)
	}
}

// A run both hosts simulated lands in one file; either copy renders the
// same document, host timings aside.
func TestMergeShardsDuplicateRunAcrossShards(t *testing.T) {
	cfg := jsonSweepConfig()
	src, plan, assign, roots := shardCaches(t, cfg, 2)
	other, err := NewRunCache(roots[1-assign[0]], cfg)
	if err != nil {
		t.Fatal(err)
	}
	dup := *fakeOutput(plan.Runs[0], 0)
	dup.HostSeconds = 99
	if err := other.Store(plan.Runs[0], &dup); err != nil {
		t.Fatal(err)
	}
	wantMerged(t, src, plan, RunJSONOptions{}, roots...)
}

// An entry for a run outside the plan sits in the merged cache unread.
func TestMergeShardsRunOutsidePlan(t *testing.T) {
	cfg := jsonSweepConfig()
	src, plan, _, roots := shardCaches(t, cfg, 2)
	c, err := NewRunCache(roots[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	stray := RunKey{Workload: "zzz", Scheme: oskernel.SchemeLVM}
	if err := c.Store(stray, fakeOutput(stray, 9)); err != nil {
		t.Fatal(err)
	}
	wantMerged(t, src, plan, RunJSONOptions{Timings: true}, roots...)
}

func TestMergeShardsMissingOutputPayload(t *testing.T) {
	cfg := jsonSweepConfig()
	_, plan, assign, roots := shardCaches(t, cfg, 2)
	path := shardEntry(t, cfg, plan, assign, roots, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]json.RawMessage
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	delete(e, "output")
	if b, err = json.MarshalIndent(e, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	wantMergeError(t, cfg, plan, roots, plan.Runs[0].String(), filepath.Base(path), "not in the form Store writes")
}

func TestMergeShardsCorruptMetricKind(t *testing.T) {
	cfg := jsonSweepConfig()
	_, plan, assign, roots := shardCaches(t, cfg, 2)
	path := shardEntry(t, cfg, plan, assign, roots, 0)
	rewriteEntry(t, path, func(e *cacheEntry) { e.Output.Sim.Metrics[0].Kind = "histogram" })
	wantMergeError(t, cfg, plan, roots, plan.Runs[0].String(), filepath.Base(path), "unknown kind")
}

// A shard cut from a different sweep config lands in its own namespace, so
// copying it in supplies nothing; one of its entries moved by hand into
// this namespace is refused by its fingerprint.
func TestMergeShardsFingerprintMismatch(t *testing.T) {
	cfgA := jsonSweepConfig()
	cfgB := jsonSweepConfig()
	cfgB.Params.TraceLen++ // a different sweep
	_, plan, assignA, rootsA := shardCaches(t, cfgA, 2)
	_, _, assignB, rootsB := shardCaches(t, cfgB, 2)
	_, missing, err := mergeShardCaches(t, cfgA, plan, rootsA[0], rootsB[1])
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range plan.Runs {
		if got := slices.Contains(missing, k); got != (assignA[i] == 1) {
			t.Errorf("run %s missing=%t after merging a foreign shard 1", k, got)
		}
	}
	foreign, err := os.ReadFile(shardEntry(t, cfgB, plan, assignB, rootsB, 0))
	if err != nil {
		t.Fatal(err)
	}
	path := shardEntry(t, cfgA, plan, assignA, rootsA, 0)
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	wantMergeError(t, cfgA, plan, rootsA, plan.Runs[0].String(), filepath.Base(path), "fingerprint")
}

// Shards cut with different counts still merge: entries are per run, not
// per partition.
func TestMergeShardsShardCountMismatch(t *testing.T) {
	cfg := jsonSweepConfig()
	src, plan, _, roots2 := shardCaches(t, cfg, 2)
	_, _, _, roots3 := shardCaches(t, cfg, 3)
	wantMerged(t, src, plan, RunJSONOptions{}, append([]string{roots2[0]}, roots3...)...)
}

// Merging no caches supplies nothing: every run simulates again.
func TestMergeShardsNoFiles(t *testing.T) {
	cfg := jsonSweepConfig()
	_, plan, _, _ := shardCaches(t, cfg, 1)
	_, missing, err := mergeShardCaches(t, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(missing, plan.Runs) {
		t.Errorf("an empty merge supplied runs: missing %v, want all of %v", missing, plan.Runs)
	}
}

// The sharding acceptance test, end to end with real simulations: for
// shard counts 1, 2 and 3, each shard fills its own run cache, the caches
// are copied together, and a warm runner over the merged cache simulates
// nothing and renders the unsharded -json document byte for byte.
func TestShardMergeByteIdentical(t *testing.T) {
	skipSweep(t)
	// The walkcaches registry experiment requires exactly the tiny
	// fixture's 4-run matrix, so the unsharded executeTiny document is the
	// byte-for-byte reference for the sharded runs.
	baseline := executeTiny(t, 2, false)
	cfg := jsonSweepConfig()
	exps, err := Select("walkcaches")
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(cfg, exps)
	if want := jsonSweepPlan(cfg); !slices.Equal(plan.Runs, want.Runs) {
		t.Fatalf("walkcaches run matrix %v does not match the tiny fixture %v", plan.Runs, want.Runs)
	}

	for n := 1; n <= 3; n++ {
		merged := t.TempDir()
		for s := 0; s < n; s++ {
			root := t.TempDir()
			cache, err := NewRunCache(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := ShardSpec{Index: s, Count: n}
			if err := NewRunner(cfg).ExecuteRuns(plan, ExecOptions{Workers: 2, Shard: spec, Cache: cache}); err != nil {
				t.Fatalf("n=%d shard %d: %v", n, s, err)
			}
			copyCache(t, merged, root)
		}
		cache, err := NewRunCache(merged, cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm := &countingSink{}
		r := NewRunner(cfg)
		r.SetSink(warm)
		if err := r.ExecuteRuns(plan, ExecOptions{Workers: 2, Cache: cache}); err != nil {
			t.Fatalf("n=%d: warm sweep: %v", n, err)
		}
		if len(warm.started) != 0 {
			t.Errorf("n=%d: warm sweep over the merged caches simulated %v", n, warm.started)
		}
		got, err := r.RunsJSON(plan, RunJSONOptions{})
		if err != nil {
			t.Fatalf("n=%d: merged RunsJSON: %v", n, err)
		}
		if !bytes.Equal(got, baseline) {
			t.Errorf("n=%d: merged document differs from unsharded baseline", n)
		}
	}
}
