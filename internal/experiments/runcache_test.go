package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"lvm/internal/metrics"
	"lvm/internal/oskernel"
	"lvm/internal/sim"
)

func testKey() RunKey { return RunKey{Workload: "mem$", Scheme: oskernel.SchemeLVM} }

// fakeOutput builds a distinguishable RunOutput without simulating, for
// serialization and restore tests.
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

func TestRunCacheRoundTrip(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()

	if _, hit, err := c.Load(key); err != nil || hit {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}

	want := fakeOutput(key, 3)
	if err := c.Store(key, want); err != nil {
		t.Fatal(err)
	}
	got, hit, err := c.Load(key)
	if err != nil || !hit {
		t.Fatalf("Load after Store: hit=%v err=%v", hit, err)
	}
	// Compare through the canonical wire form: metric insertion order is
	// allowed to differ, nothing else is.
	if !reflect.DeepEqual(encodeRunOutput(got), encodeRunOutput(want)) {
		t.Errorf("round trip changed the output:\n got %+v\nwant %+v", encodeRunOutput(got), encodeRunOutput(want))
	}
	if got.HostSeconds != want.HostSeconds {
		t.Errorf("HostSeconds %v, want %v", got.HostSeconds, want.HostSeconds)
	}
}

func TestRunCacheNamespacesByConfig(t *testing.T) {
	root := t.TempDir()
	cfgA := jsonSweepConfig()
	cfgB := jsonSweepConfig()
	cfgB.Params.Seed++
	a, err := NewRunCache(root, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunCache(root, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if a.dir == b.dir {
		t.Fatalf("different configs share namespace %s", a.dir)
	}
	key := testKey()
	if err := a.Store(key, fakeOutput(key, 1)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := b.Load(key); err != nil || hit {
		t.Errorf("config B saw config A's entry: hit=%v err=%v", hit, err)
	}
}

func TestRunCacheCorruptEntry(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	if err := c.Store(key, fakeOutput(key, 1)); err != nil {
		t.Fatal(err)
	}
	path := c.entryPath(key)
	if err := os.WriteFile(path, []byte("{ truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Load(key)
	if err == nil {
		t.Fatal("corrupt entry loaded without error")
	}
	for _, want := range []string{key.String(), path, "corrupt"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestRunCacheKeyMismatch(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	keyA := RunKey{Workload: "bfs", Scheme: oskernel.SchemeRadix}
	keyB := RunKey{Workload: "bfs", Scheme: oskernel.SchemeLVM}
	if err := c.Store(keyA, fakeOutput(keyA, 1)); err != nil {
		t.Fatal(err)
	}
	// A hand-copied entry file must be rejected by the embedded key.
	b, err := os.ReadFile(c.entryPath(keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.entryPath(keyB), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Load(keyB); err == nil || !strings.Contains(err.Error(), keyA.String()) {
		t.Errorf("copied entry accepted or error unhelpful: %v", err)
	}
}

func TestRunCacheStaleEntryRejected(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	if err := c.Store(key, fakeOutput(key, 1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		edit func(*cacheEntry)
		want string
	}{
		{func(e *cacheEntry) { e.SchemaVersion = RunJSONSchemaVersion - 1 }, "schema"},
		{func(e *cacheEntry) { e.Fingerprint = "beefbeefbeefbeef" }, "fingerprint"},
		{func(e *cacheEntry) { e.Output.Sim.Metrics[0].Kind = "histogram" }, "unknown kind"},
	} {
		if err := c.Store(key, fakeOutput(key, 1)); err != nil {
			t.Fatal(err)
		}
		rewriteEntry(t, c.entryPath(key), tc.edit)
		_, _, err := c.Load(key)
		if err == nil {
			t.Errorf("entry with a bad %s accepted", tc.want)
			continue
		}
		for _, want := range []string{key.String(), c.entryPath(key), tc.want} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	}
}

// TestRunCacheNonCanonicalEntry refuses an entry that decodes cleanly but
// is not what Store writes: the same entry re-indented, or with its output
// payload missing.
func TestRunCacheNonCanonicalEntry(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	for name, edit := range map[string]func(map[string]json.RawMessage){
		"compact":        func(map[string]json.RawMessage) {},
		"missing output": func(e map[string]json.RawMessage) { delete(e, "output") },
	} {
		if err := c.Store(key, fakeOutput(key, 1)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(c.entryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]json.RawMessage
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		edit(e)
		if b, err = json.Marshal(e); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.entryPath(key), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Load(key); err == nil || !strings.Contains(err.Error(), "not in the form Store writes") {
			t.Errorf("%s entry: Load returned %v", name, err)
		}
	}
}

// fillCache stores a fabricated output for every run of the walkcaches
// plan in one run cache, as a cold sweep would, and returns a runner that
// holds the same outputs, the plan and the cache. Nothing is simulated, so
// every restore case runs at unit-test speed.
func fillCache(t *testing.T, cfg Config) (*Runner, Plan, *RunCache) {
	t.Helper()
	exps, err := Select("walkcaches")
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(cfg, exps)
	c, err := NewRunCache(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := NewRunner(cfg)
	for i, k := range plan.Runs {
		out := fakeOutput(k, i)
		src.installRun(k, out)
		if err := c.Store(k, out); err != nil {
			t.Fatal(err)
		}
	}
	return src, plan, c
}

// restorePlan restores plan from c into a fresh runner under cfg, the way
// a warm sweep does: the runner holds every run the cache supplied, and
// missing lists the runs a warm sweep would simulate again.
func restorePlan(cfg Config, plan Plan, c *RunCache) (r *Runner, missing []RunKey, err error) {
	r = NewRunner(cfg)
	for _, k := range plan.Runs {
		done, err := r.restoreRun(k, c)
		if err != nil {
			return nil, nil, err
		}
		if !done {
			missing = append(missing, k)
		}
	}
	return r, missing, nil
}

// TestRunCacheRestorePlan restores a whole plan from one cache: every run
// the cache holds comes back, and the restored runner renders the source
// runner's document byte for byte.
func TestRunCacheRestorePlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, c *RunCache, plan Plan)
		// missing is how many leading plan runs the edit leaves to
		// simulate again.
		missing int
		opt     RunJSONOptions
	}{
		{"complete", func(*testing.T, *RunCache, Plan) {}, 0, RunJSONOptions{Timings: true}},
		// A missing entry leaves exactly its run to simulate again: slower,
		// never a wrong table.
		{"missing run", func(t *testing.T, c *RunCache, plan Plan) {
			if err := os.Remove(c.entryPath(plan.Runs[0])); err != nil {
				t.Fatal(err)
			}
		}, 1, RunJSONOptions{}},
		// An entry for a run outside the plan sits in the cache unread.
		{"run outside plan", func(t *testing.T, c *RunCache, _ Plan) {
			stray := RunKey{Workload: "zzz", Scheme: oskernel.SchemeLVM}
			if err := c.Store(stray, fakeOutput(stray, 9)); err != nil {
				t.Fatal(err)
			}
		}, 0, RunJSONOptions{Timings: true}},
		// A run stored again replaces its entry; either copy renders the
		// same document, host timings aside.
		{"stored twice", func(t *testing.T, c *RunCache, plan Plan) {
			dup := *fakeOutput(plan.Runs[0], 0)
			dup.HostSeconds = 99
			if err := c.Store(plan.Runs[0], &dup); err != nil {
				t.Fatal(err)
			}
		}, 0, RunJSONOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := jsonSweepConfig()
			src, plan, c := fillCache(t, cfg)
			tc.edit(t, c, plan)
			r, missing, err := restorePlan(cfg, plan, c)
			if err != nil {
				t.Fatal(err)
			}
			if want := plan.Runs[:tc.missing]; !slices.Equal(missing, want) {
				t.Fatalf("restore misses %v, want %v", missing, want)
			}
			if tc.missing > 0 {
				return
			}
			want, err := src.RunsJSON(plan, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.RunsJSON(plan, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("restored document differs from the source runner's\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
		})
	}
}

// A document that is not a cache entry — here the -json run document —
// written over an entry is refused with an error naming the run and file,
// not read as one.
func TestRunCacheRefusesRunDocument(t *testing.T) {
	cfg := jsonSweepConfig()
	src, plan, c := fillCache(t, cfg)
	doc, err := src.RunsJSON(plan, RunJSONOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := c.entryPath(plan.Runs[0])
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = restorePlan(cfg, plan, c)
	if err == nil {
		t.Fatal("restore accepted a run document as a cache entry")
	}
	for _, want := range []string{plan.Runs[0].String(), path} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRunCacheRestorePlanRefuses restores a whole plan from a cache with
// one bad entry: the restore stops with an error naming the run, the
// entry's file and what is wrong with it, rather than rendering a table
// from it.
func TestRunCacheRestorePlanRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		// edit spoils the entry at path, run i of the plan's entry.
		edit func(t *testing.T, path string)
		want string
	}{
		{"schema", func(t *testing.T, path string) {
			rewriteEntry(t, path, func(e *cacheEntry) { e.SchemaVersion = RunJSONSchemaVersion - 1 })
		}, "schema"},
		{"corrupt", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil { // truncate mid-JSON
				t.Fatal(err)
			}
		}, "corrupt"},
		{"missing output", func(t *testing.T, path string) {
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
		}, "not in the form Store writes"},
		{"unknown kind", func(t *testing.T, path string) {
			rewriteEntry(t, path, func(e *cacheEntry) { e.Output.Sim.Metrics[0].Kind = "histogram" })
		}, "unknown kind"},
		// An entry from a cache filled under a different sweep config,
		// moved by hand into this config's namespace, is refused by its
		// fingerprint.
		{"fingerprint", func(t *testing.T, path string) {
			other := jsonSweepConfig()
			other.Params.TraceLen++ // a different sweep
			_, plan, c := fillCache(t, other)
			foreign, err := os.ReadFile(c.entryPath(plan.Runs[1]))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, foreign, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "fingerprint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := jsonSweepConfig()
			_, plan, c := fillCache(t, cfg)
			key := plan.Runs[1]
			path := c.entryPath(key)
			tc.edit(t, path)
			_, _, err := restorePlan(cfg, plan, c)
			if err == nil {
				t.Fatalf("restore accepted an entry with a bad %s", tc.name)
			}
			for _, want := range []string{key.String(), path} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			// The temporary directory is named after the subtest, so the
			// reason is looked for outside the entry's path.
			if !strings.Contains(strings.ReplaceAll(err.Error(), path, ""), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// rewriteEntry decodes the cache entry at path, applies edit, and writes
// it back (compactly, so only Load's earlier checks can accept it).
func rewriteEntry(t *testing.T, path string, edit func(*cacheEntry)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e cacheEntry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	edit(&e)
	if b, err = json.Marshal(e); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestConfigFingerprintSensitivity(t *testing.T) {
	a := jsonSweepConfig()
	b := jsonSweepConfig()
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fa2, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fa2 {
		t.Error("identical configs fingerprint differently")
	}
	b.Params.Seed++
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Error("different configs share a fingerprint")
	}
}

// FuzzRunCacheEntry writes arbitrary bytes as a cache entry, as a cache
// directory copied from another host may hold. Load must either refuse
// the entry with an error naming the run and the file, or return an
// output that Store writes back as exactly the same bytes. Seeds live in
// testdata/fuzz/FuzzRunCacheEntry.
func FuzzRunCacheEntry(f *testing.F) {
	c, err := NewRunCache(f.TempDir(), jsonSweepConfig())
	if err != nil {
		f.Fatal(err)
	}
	key := testKey()
	path := c.entryPath(key)
	f.Fuzz(func(t *testing.T, entry []byte) {
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		out, hit, err := c.Load(key)
		if err != nil {
			if !strings.Contains(err.Error(), key.String()) || !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name run %s and file %s", err, key, path)
			}
			return
		}
		if !hit {
			t.Fatal("a present entry loaded as a miss")
		}
		if err := c.Store(key, out); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, entry) {
			t.Fatalf("accepted entry re-stores as different bytes:\n got %q\nwant %q", again, entry)
		}
	})
}

// countingSink records which pipeline events fired, for the warm-cache
// zero-simulation assertion.
type countingSink struct {
	mu      sync.Mutex
	started []RunKey
	cached  []RunKey
}

func (s *countingSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case RunStart:
		s.started = append(s.started, e.Key)
	case RunCached:
		s.cached = append(s.cached, e.Key)
	}
}

// The cache acceptance test: a cold sweep simulates everything and fills
// the cache; a warm sweep over a fresh runner simulates nothing, reports
// every run as cached, and produces a byte-identical document. A corrupt
// entry surfaces as an error naming the run, never as a silent re-run.
func TestRunCacheColdWarmSweep(t *testing.T) {
	skipSweep(t)
	cfg := jsonSweepConfig()
	plan := jsonSweepPlan(cfg)
	cache, err := NewRunCache(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	cold := &countingSink{}
	r1 := NewRunner(cfg)
	r1.SetSink(cold)
	if _, err := r1.ExecutePlan(plan, ExecOptions{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if len(cold.started) != len(plan.Runs) || len(cold.cached) != 0 {
		t.Fatalf("cold sweep: %d started, %d cached; want %d/0", len(cold.started), len(cold.cached), len(plan.Runs))
	}
	coldJSON, err := r1.RunsJSON(plan, RunJSONOptions{})
	if err != nil {
		t.Fatal(err)
	}

	warm := &countingSink{}
	r2 := NewRunner(cfg)
	r2.SetSink(warm)
	if _, err := r2.ExecutePlan(plan, ExecOptions{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if len(warm.started) != 0 {
		t.Errorf("warm sweep simulated %d runs: %v", len(warm.started), warm.started)
	}
	if len(warm.cached) != len(plan.Runs) {
		t.Errorf("warm sweep reported %d cached runs, want %d", len(warm.cached), len(plan.Runs))
	}
	warmJSON, err := r2.RunsJSON(plan, RunJSONOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Error("warm-cache document differs from the cold one")
	}

	// Corrupt one entry: the next sweep must fail loudly, naming the run.
	bad := plan.Runs[1]
	if err := os.WriteFile(cache.entryPath(bad), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(cfg)
	if err := r3.ExecuteRuns(plan, ExecOptions{Workers: 2, Cache: cache}); err == nil {
		t.Fatal("corrupt cache entry did not fail the sweep")
	} else if !strings.Contains(err.Error(), bad.String()) {
		t.Errorf("error %q does not name run %s", err, bad)
	}
}
