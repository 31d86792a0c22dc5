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

	if _, hit, err := c.loadRun(key); err != nil || hit {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}

	want := fakeOutput(key, 3)
	if err := c.storeRun(key, want); err != nil {
		t.Fatal(err)
	}
	got, hit, err := c.loadRun(key)
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
	if err := a.storeRun(key, fakeOutput(key, 1)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := b.loadRun(key); err != nil || hit {
		t.Errorf("config B saw config A's entry: hit=%v err=%v", hit, err)
	}
}

func TestRunCacheCorruptEntry(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	if err := c.storeRun(key, fakeOutput(key, 1)); err != nil {
		t.Fatal(err)
	}
	path := c.path(key.String())
	if err := os.WriteFile(path, []byte("{ truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.loadRun(key)
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
	if err := c.storeRun(keyA, fakeOutput(keyA, 1)); err != nil {
		t.Fatal(err)
	}
	// A hand-copied entry file must be rejected by the embedded name.
	b, err := os.ReadFile(c.path(keyA.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(keyB.String()), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.loadRun(keyB); err == nil || !strings.Contains(err.Error(), keyA.String()) {
		t.Errorf("copied entry accepted or error unhelpful: %v", err)
	}
}

func TestRunCacheStaleEntryRejected(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	for _, tc := range []struct {
		edit func(*cacheEntry)
		want string
	}{
		{func(e *cacheEntry) { e.SchemaVersion = RunJSONSchemaVersion - 1 }, "schema"},
		{func(e *cacheEntry) { e.Fingerprint = "beefbeefbeefbeef" }, "fingerprint"},
		{func(e *cacheEntry) { e.Payload.(*runOutputDoc).Sim.Metrics[0].Kind = "histogram" }, "unknown kind"},
	} {
		if err := c.storeRun(key, fakeOutput(key, 1)); err != nil {
			t.Fatal(err)
		}
		rewriteEntry(t, c.path(key.String()), &runOutputDoc{}, tc.edit)
		_, _, err := c.loadRun(key)
		if err == nil {
			t.Errorf("entry with a bad %s accepted", tc.want)
			continue
		}
		for _, want := range []string{key.String(), c.path(key.String()), tc.want} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	}
}

// TestRunCacheNonCanonicalEntry refuses an entry that decodes cleanly but
// is not what Store writes: the same entry re-indented, with its payload
// missing, or with a metrics list Store would never write (a duplicated
// counter, which decoding would add up; metrics out of name order; a
// counter carrying a float).
func TestRunCacheNonCanonicalEntry(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	path := c.path(key.String())
	rawEdit := func(edit func(map[string]json.RawMessage)) func(*testing.T) {
		return func(t *testing.T) {
			b, err := os.ReadFile(path)
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
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	metricsEdit := func(edit func([]typedMetric) []typedMetric) func(*testing.T) {
		return func(t *testing.T) {
			rewriteEntry(t, path, &runOutputDoc{}, func(e *cacheEntry) {
				doc := e.Payload.(*runOutputDoc)
				doc.Sim.Metrics = edit(doc.Sim.Metrics)
			})
		}
	}
	counter := func(ms []typedMetric) int {
		for i, m := range ms {
			if m.Kind == "counter" {
				return i
			}
		}
		t.Fatal("no counter in the fake output")
		return 0
	}
	for _, tc := range []struct {
		name string
		edit func(*testing.T)
	}{
		{"compact", rawEdit(func(map[string]json.RawMessage) {})},
		{"missing output", rawEdit(func(e map[string]json.RawMessage) { delete(e, "payload") })},
		{"duplicated counter", metricsEdit(func(ms []typedMetric) []typedMetric {
			i := counter(ms)
			return append(ms[:i+1:i+1], ms[i:]...)
		})},
		{"reordered metrics", metricsEdit(func(ms []typedMetric) []typedMetric {
			ms[0], ms[1] = ms[1], ms[0]
			return ms
		})},
		{"counter with float", metricsEdit(func(ms []typedMetric) []typedMetric {
			ms[counter(ms)].Float = 0.5
			return ms
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := c.storeRun(key, fakeOutput(key, 1)); err != nil {
				t.Fatal(err)
			}
			tc.edit(t)
			_, _, err := c.loadRun(key)
			if err == nil || !strings.Contains(err.Error(), "not in the form Store writes") || !strings.Contains(err.Error(), path) {
				t.Errorf("Load returned %v", err)
			}
		})
	}
}

// fakeFragmentation is a fabricated measurement of the fragmentation
// experiment, for restore tests.
func fakeFragmentation() FragmentationResult {
	res := FragmentationResult{Speedups: map[string]float64{}, LWCHits: map[string]float64{}}
	for i, label := range fragmentationLabels {
		res.Speedups[label] = 1 + float64(i)/8
		res.LWCHits[label] = 1 - float64(i)/256
	}
	return res
}

// storeMeasurement stores v as the named measurement's entry, in Store's
// form.
func storeMeasurement(t *testing.T, c *RunCache, name string, v any) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(name, json.RawMessage(payload), 2.5); err != nil {
		t.Fatal(err)
	}
}

// fillCache stores a fabricated output for every run of the walkcaches
// plan, and a fabricated fragmentation measurement, in one run cache, as a
// cold sweep would, and returns a runner that holds the same results, the
// plan and the cache. Nothing is simulated, so every restore case runs at
// unit-test speed.
func fillCache(t *testing.T, cfg Config) (*Runner, Plan, *RunCache) {
	t.Helper()
	exps, err := Select("walkcaches", "fragmentation")
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
		src.runs[k] = out
		if err := c.storeRun(k, out); err != nil {
			t.Fatal(err)
		}
	}
	storeMeasurement(t, c, "fragmentation", fakeFragmentation())
	return src, plan, c
}

// restorePlan restores plan from c into a fresh runner under cfg, the way
// a warm sweep does, and when nothing is missing renders every experiment
// from what it restored. The runner holds every task the cache supplied,
// and missing names the tasks a warm sweep would execute again.
func restorePlan(cfg Config, plan Plan, c *RunCache) (r *Runner, missing []string, err error) {
	r = NewRunner(cfg)
	var tasks []task
	for i := range plan.Experiments {
		if e := &plan.Experiments[i]; e.Measure != nil {
			tasks = append(tasks, task{exp: e})
		}
	}
	for _, k := range plan.Runs {
		tasks = append(tasks, task{run: k})
	}
	for _, t := range tasks {
		done, err := r.restore(t, c)
		if err != nil {
			return nil, nil, err
		}
		if !done {
			name := t.run.String()
			if t.exp != nil {
				name = t.exp.Key
			}
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return r, missing, nil
	}
	for _, e := range plan.Experiments {
		if _, err := e.Compute(r); err != nil {
			return nil, nil, err
		}
	}
	return r, nil, nil
}

// TestRunCacheRestorePlan restores a whole plan from one cache: every task
// the cache holds comes back, and the restored runner renders the source
// runner's document byte for byte.
func TestRunCacheRestorePlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, c *RunCache, plan Plan)
		// missing names the tasks the edit leaves to execute again.
		missing func(plan Plan) []string
		opt     RunJSONOptions
	}{
		{"complete", func(*testing.T, *RunCache, Plan) {}, nil, RunJSONOptions{Timings: true}},
		// A missing entry leaves exactly its task to execute again:
		// slower, never a wrong table.
		{"missing run", func(t *testing.T, c *RunCache, plan Plan) {
			if err := os.Remove(c.path(plan.Runs[0].String())); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(c.path("fragmentation")); err != nil {
				t.Fatal(err)
			}
		}, func(plan Plan) []string { return []string{"fragmentation", plan.Runs[0].String()} }, RunJSONOptions{}},
		// An entry for a task outside the plan sits in the cache unread.
		{"run outside plan", func(t *testing.T, c *RunCache, _ Plan) {
			stray := RunKey{Workload: "zzz", Scheme: oskernel.SchemeLVM}
			if err := c.storeRun(stray, fakeOutput(stray, 9)); err != nil {
				t.Fatal(err)
			}
			storeMeasurement(t, c, "tail", TailLatencyResult{ChurnOps: 3})
		}, nil, RunJSONOptions{Timings: true}},
		// A task stored again replaces its entry; either copy renders the
		// same document, host timings aside.
		{"stored twice", func(t *testing.T, c *RunCache, plan Plan) {
			dup := *fakeOutput(plan.Runs[0], 0)
			dup.HostSeconds = 99
			if err := c.storeRun(plan.Runs[0], &dup); err != nil {
				t.Fatal(err)
			}
			storeMeasurement(t, c, "fragmentation", fakeFragmentation())
		}, nil, RunJSONOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := jsonSweepConfig()
			src, plan, c := fillCache(t, cfg)
			tc.edit(t, c, plan)
			r, missing, err := restorePlan(cfg, plan, c)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			if tc.missing != nil {
				want = tc.missing(plan)
			}
			if !slices.Equal(missing, want) {
				t.Fatalf("restore misses %v, want %v", missing, want)
			}
			if len(want) > 0 {
				return
			}
			wantDoc, err := src.RunsJSON(plan, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.RunsJSON(plan, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantDoc) {
				t.Errorf("restored document differs from the source runner's\n--- want ---\n%s\n--- got ---\n%s", wantDoc, got)
			}
			frag, err := measurementOf[FragmentationResult](r, "fragmentation")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(frag, fakeFragmentation()) {
				t.Errorf("restored measurement %+v, stored %+v", frag, fakeFragmentation())
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
	path := c.path(plan.Runs[0].String())
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
// one bad entry, a run's or a measurement's: the restore stops with an
// error naming the task, the entry's file and what is wrong with it,
// rather than rendering a table from it.
func TestRunCacheRestorePlanRefuses(t *testing.T) {
	// rewritePayload replaces the payload of the measurement entry at path
	// with edit's version of it, keeping the rest of the entry in Store's
	// form, so only the check on the payload itself can refuse it.
	rewritePayload := func(t *testing.T, path string, edit func(map[string]json.RawMessage)) {
		rewriteEntry(t, path, &json.RawMessage{}, func(e *cacheEntry) {
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(*e.Payload.(*json.RawMessage), &fields); err != nil {
				t.Fatal(err)
			}
			edit(fields)
			b, err := json.Marshal(fields)
			if err != nil {
				t.Fatal(err)
			}
			e.Payload = json.RawMessage(b)
		})
	}
	// foreign copies task's entry from a cache filled under a different
	// sweep config over path.
	foreign := func(t *testing.T, path, task string) {
		other := jsonSweepConfig()
		other.Params.TraceLen++ // a different sweep
		_, _, c := fillCache(t, other)
		b, err := os.ReadFile(c.path(task))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		// measurement spoils the fragmentation measurement's entry rather
		// than the entry of the plan's second run.
		measurement bool
		edit        func(t *testing.T, path string)
		want        string
	}{
		{"schema", false, func(t *testing.T, path string) {
			rewriteEntry(t, path, &runOutputDoc{}, func(e *cacheEntry) { e.SchemaVersion = RunJSONSchemaVersion - 1 })
		}, "schema"},
		{"corrupt", false, func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil { // truncate mid-JSON
				t.Fatal(err)
			}
		}, "corrupt"},
		{"missing output", false, func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var e map[string]json.RawMessage
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatal(err)
			}
			delete(e, "payload")
			if b, err = json.MarshalIndent(e, "", "  "); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "not in the form Store writes"},
		{"unknown kind", false, func(t *testing.T, path string) {
			rewriteEntry(t, path, &runOutputDoc{}, func(e *cacheEntry) {
				e.Payload.(*runOutputDoc).Sim.Metrics[0].Kind = "histogram"
			})
		}, "unknown kind"},
		// An entry from a cache filled under a different sweep config,
		// moved by hand into this config's namespace, is refused by its
		// fingerprint.
		{"fingerprint", false, func(t *testing.T, path string) {
			foreign(t, path, RunKey{Workload: "bfs", Scheme: oskernel.SchemeLVM}.String())
		}, "fingerprint"},
		// A measurement whose payload lacks a field would render that
		// field as zeros; one with a stray field was not written by
		// Store.
		{"measurement missing field", true, func(t *testing.T, path string) {
			rewritePayload(t, path, func(f map[string]json.RawMessage) { delete(f, "Speedups") })
		}, "not in the form Store writes"},
		{"measurement stray field", true, func(t *testing.T, path string) {
			rewritePayload(t, path, func(f map[string]json.RawMessage) { f["Bogus"] = json.RawMessage("1") })
		}, "not in the form Store writes"},
		{"measurement name", true, func(t *testing.T, path string) {
			rewriteEntry(t, path, &json.RawMessage{}, func(e *cacheEntry) { e.Name = "ptwl1" })
		}, "holds ptwl1"},
		{"measurement fingerprint", true, func(t *testing.T, path string) {
			foreign(t, path, "fragmentation")
		}, "fingerprint"},
		{"measurement schema", true, func(t *testing.T, path string) {
			rewriteEntry(t, path, &json.RawMessage{}, func(e *cacheEntry) { e.SchemaVersion = RunJSONSchemaVersion - 1 })
		}, "schema"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := jsonSweepConfig()
			_, plan, c := fillCache(t, cfg)
			name := plan.Runs[1].String()
			if tc.measurement {
				name = "fragmentation"
			}
			path := c.path(name)
			tc.edit(t, path)
			_, _, err := restorePlan(cfg, plan, c)
			if err == nil {
				t.Fatalf("restore accepted an entry with a bad %s", tc.name)
			}
			for _, want := range []string{name, path} {
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

// rewriteEntry decodes the cache entry at path, with its payload decoded
// into payload, applies edit, and writes it back in Store's form, so the
// check aimed at the edit is the one that must refuse it.
func rewriteEntry(t *testing.T, path string, payload any, edit func(*cacheEntry)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e := cacheEntry{Payload: payload}
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	edit(&e)
	if b, err = json.MarshalIndent(e, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
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
	path := c.path(key.String())
	f.Fuzz(func(t *testing.T, entry []byte) {
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		out, hit, err := c.loadRun(key)
		if err != nil {
			if !strings.Contains(err.Error(), key.String()) || !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name run %s and file %s", err, key, path)
			}
			return
		}
		if !hit {
			t.Fatal("a present entry loaded as a miss")
		}
		if err := c.storeRun(key, out); err != nil {
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

// countingSink records which tasks started and which were restored, for
// the warm-cache zero-simulation assertions.
type countingSink struct {
	mu      sync.Mutex
	started []string
	cached  []string
}

func (s *countingSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case RunStart:
		s.started = append(s.started, e.task())
	case RunCached:
		s.cached = append(s.cached, e.task())
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
	if err := os.WriteFile(cache.path(bad.String()), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(cfg)
	if _, err := r3.ExecutePlan(plan, ExecOptions{Workers: 2, Cache: cache}); err == nil {
		t.Fatal("corrupt cache entry did not fail the sweep")
	} else if !strings.Contains(err.Error(), bad.String()) {
		t.Errorf("error %q does not name run %s", err, bad)
	}
}

// testArtifact is shaped like the real measurement payloads: floats,
// counters, and a uint64-keyed map (which encoding/json round-trips through
// string keys).
type testArtifact struct {
	P50      float64           `json:"p50"`
	Ops      int               `json:"ops"`
	Fraction map[uint64]string `json:"fraction"`
}

// A measurement entry round-trips: restored into a runner, it decodes to
// exactly the value that was stored.
func TestArtifactRoundTrip(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	tail := task{exp: &Experiment{Key: "tail"}}
	r := NewRunner(jsonSweepConfig())
	if done, err := r.restore(tail, c); err != nil || done {
		t.Fatalf("empty cache: restored=%v err=%v", done, err)
	}

	want := testArtifact{P50: 42.125, Ops: 7, Fraction: map[uint64]string{1 << 18: "a", 1 << 28: "b"}}
	storeMeasurement(t, c, "tail", want)
	if done, err := r.restore(tail, c); err != nil || !done {
		t.Fatalf("restore after Store: restored=%v err=%v", done, err)
	}
	got, err := measurementOf[testArtifact](r, "tail")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the measurement:\n got %+v\nwant %+v", got, want)
	}
}

// A corrupt, foreign or renamed measurement entry is a hard error naming
// the measurement, never a miss.
func TestArtifactCorruptAndForeignEntries(t *testing.T) {
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
	restore := func(c *RunCache, key string) error {
		_, err := NewRunner(cfgA).restore(task{exp: &Experiment{Key: key}}, c)
		return err
	}
	storeMeasurement(t, a, "tail", testArtifact{Ops: 1})
	entry, err := os.ReadFile(a.path("tail"))
	if err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(a.path("tail"), []byte("{ truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restore(a, "tail"); err == nil {
		t.Error("corrupt measurement loaded without error")
	} else {
		for _, want := range []string{"tail", a.path("tail"), "corrupt"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	}

	// A hand-copied entry from another config's namespace is rejected by
	// the embedded fingerprint; a renamed one by the embedded name.
	if err := os.WriteFile(b.path("tail"), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restore(b, "tail"); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign-fingerprint measurement accepted: %v", err)
	}
	if err := os.WriteFile(a.path("fragmentation"), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restore(a, "fragmentation"); err == nil || !strings.Contains(err.Error(), "holds tail") {
		t.Errorf("renamed measurement accepted: %v", err)
	}
}

// A measured experiment renders byte-identically whether its measurement
// was just taken or restored from the run cache, and the warm pass reports
// the restore instead of measuring again.
func TestArtifactWarmRenderIdentity(t *testing.T) {
	cache, err := NewRunCache(t.TempDir(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	pass := func() (Result, *countingSink) {
		sink := &countingSink{}
		r := NewRunner(Quick())
		r.SetSink(sink)
		res, err := r.Execute(ExecOptions{Workers: 1, Cache: cache}, "fig3")
		if err != nil {
			t.Fatal(err)
		}
		return res[0], sink
	}
	cold, coldSink := pass()
	if !slices.Equal(coldSink.started, []string{"fig3"}) || len(coldSink.cached) != 0 {
		t.Fatalf("cold pass: started=%v cached=%v, want one measurement", coldSink.started, coldSink.cached)
	}
	warm, warmSink := pass()
	if len(warmSink.started) != 0 || !slices.Equal(warmSink.cached, []string{"fig3"}) {
		t.Fatalf("warm pass: started=%v cached=%v, want one restore", warmSink.started, warmSink.cached)
	}
	if !reflect.DeepEqual(cold.Raw.(Fig3Result).Fraction, warm.Raw.(Fig3Result).Fraction) {
		t.Errorf("warm measurement differs:\n cold %v\n warm %v", cold.Raw, warm.Raw)
	}
	if cold.Render() != warm.Render() {
		t.Errorf("warm render differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold.Render(), warm.Render())
	}
}

// Every experiment executed alone against a cache that the whole quick
// plan filled finds everything its Compute reads there: its Requires and
// Measure cover its Compute, so it starts no task and reads nothing the
// plan left out.
func TestRequiresCoverCompute(t *testing.T) {
	skipSweep(t)
	cfg := Quick()
	cache, err := NewRunCache(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(cfg).Execute(ExecOptions{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	for _, key := range Keys() {
		sink := &countingSink{}
		r := NewRunner(cfg)
		r.SetSink(sink)
		if _, err := r.Execute(ExecOptions{Workers: 2, Cache: cache}, key); err != nil {
			t.Errorf("%s alone: %v", key, err)
			continue
		}
		if len(sink.started) != 0 {
			t.Errorf("%s alone started %v", key, sink.started)
		}
	}
}
