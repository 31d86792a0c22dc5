package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"lvm/internal/oskernel"
	"lvm/internal/workload"
)

// TestReferenceMatchesBaselineWarmup cross-checks the committed reference
// against bench_baseline_warmup.json, the sweep's warmed quick baseline,
// on every cell both record at the same trace length and warmup.
func TestReferenceMatchesBaselineWarmup(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../bench_baseline_warmup.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Runs []struct {
			Workload string
			Scheme   oskernel.Scheme
			THP      bool
			Warmup   int
			Metrics  map[string]float64
		}
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	overlap := 0
	for _, r := range base.Runs {
		if r.Warmup != warmPrefix {
			continue
		}
		c := cellSpec{Workload: r.Workload, Scheme: r.Scheme, THP: r.THP, TraceLen: quickLen, Warm: r.Warmup}
		d, ok := ref.Cells[c.key()]
		if !ok {
			continue
		}
		overlap++
		for n, v := range d.Values {
			if bv, ok := r.Metrics[n]; ok && bv != v {
				t.Errorf("%s: %s = %v in reference.json, %v in the baseline", c.key(), n, v, bv)
			}
		}
	}
	// replay-miss covers gups on all nine schemes and mem$ on the six the
	// baseline records.
	if overlap < 15 {
		t.Errorf("only %d cells overlap the baseline, want at least 15", overlap)
	}
}

// TestReferenceCoversEveryOutcome checks that every cell and session a run
// checks at the reference seed has a committed digest.
func TestReferenceCoversEveryOutcome(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Seed != referenceSeed {
		t.Fatalf("reference seed %d, want %d", ref.Seed, referenceSeed)
	}
	want := map[string]bool{}
	for _, wd := range workloads {
		for _, c := range wd.cells {
			want[c.key()] = true
			for r := 1; r < wd.reps && !wd.serve; r++ {
				want[fmt.Sprintf("%s/rep=%d", c.key(), r)] = true
			}
			if !wd.serve && (c.Scheme == oskernel.SchemeLVM || c.Scheme == oskernel.SchemeRadix) {
				want[cellSpec{Workload: c.Workload, Scheme: c.Scheme, THP: c.THP, TraceLen: c.TraceLen}.key()] = true
			}
		}
	}
	for _, c := range serveCombos {
		want[cellSpec{Workload: c.Workload, Scheme: c.Scheme, THP: c.THP, TraceLen: quickLen}.key()] = true
	}
	for k := range want {
		if _, ok := ref.Cells[k]; !ok {
			t.Errorf("reference.json has no digest for %s", k)
		}
	}
}

// TestNonReferenceSeed checks that another seed draws other inputs, and
// that an outcome at that seed skips only the digest comparison: faults
// and short runs still fail.
func TestNonReferenceSeed(t *testing.T) {
	p := workload.QuickParams()
	a, err := workload.Build("gups", p)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = referenceSeed + 1
	b, err := workload.Build("gups", p)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Accesses) == len(b.Accesses)
	for i := 0; same && i < len(a.Accesses); i++ {
		same = a.Accesses[i] == b.Accesses[i]
	}
	if same {
		t.Fatal("seeds 42 and 43 built the same gups trace")
	}

	ref := reference{Seed: referenceSeed, Cells: map[string]digest{
		"cell": {SHA256: "aa", Values: map[string]float64{"run.accesses": 10, "run.cycles": 5}},
	}}
	other := digest{SHA256: "bb", Values: map[string]float64{"run.accesses": 10, "run.cycles": 6}}
	if p := problemsOf(ref, "cell", referenceSeed+1, other, 10); len(p) != 0 {
		t.Errorf("non-reference seed compared digests: %v", p)
	}
	if p := problemsOf(ref, "cell", referenceSeed, other, 10); len(p) != 2 {
		t.Errorf("reference seed problems %v, want the hash and run.cycles", p)
	}
	if p := problemsOf(ref, "unknown", referenceSeed, other, 10); len(p) != 1 {
		t.Errorf("reference seed without a digest: problems %v, want one", p)
	}
	faulty := digest{Values: map[string]float64{"run.accesses": 9, "run.faults": 1}}
	if p := problemsOf(ref, "cell", referenceSeed+1, faulty, 10); len(p) != 2 {
		t.Errorf("faults and a short run at a non-reference seed: problems %v, want two", p)
	}
}

// TestRepeatMustMatch checks that a second outcome for the same inputs
// within a run must repeat the first exactly.
func TestRepeatMustMatch(t *testing.T) {
	c := newChecker(reference{Seed: referenceSeed}, new(nopWriter))
	d := digest{SHA256: "aa", Values: map[string]float64{"run.accesses": 10}}
	c.outcome("cell", 7, d, 10)
	c.outcome("cell", 7, d, 10)
	if c.failed != 0 {
		t.Fatalf("identical repeat failed")
	}
	d2 := digest{SHA256: "bb", Values: map[string]float64{"run.accesses": 10}}
	c.outcome("cell", 7, d2, 10)
	if c.failed != 1 || c.attempted != 3 {
		t.Errorf("diverging repeat: attempted %d failed %d, want 3 and 1", c.attempted, c.failed)
	}
}
