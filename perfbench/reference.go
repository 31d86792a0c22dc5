package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// referenceSeed is the seed whose simulated outputs reference.json pins.
const referenceSeed = 42

// digestNames are the counters a digest keeps in readable form; the hash
// covers the whole metric set.
var digestNames = []string{
	"run.accesses", "run.instructions", "run.faults",
	"run.l1_tlb_misses", "run.l2_tlb_misses",
	"run.cycles", "run.tlb_cycles", "run.walk_cycles",
	"walk.walks", "walk.refs",
	"cache.l1.demand_hits", "cache.l1.demand_misses", "cache.l1.walk_hits", "cache.l1.walk_misses",
	"cache.l2.demand_hits", "cache.l2.demand_misses", "cache.l2.walk_hits", "cache.l2.walk_misses",
	"cache.l3.demand_hits", "cache.l3.demand_misses", "cache.l3.walk_hits", "cache.l3.walk_misses",
	"dram.accesses", "dram.row_hits",
}

// digest is the simulated outcome of one cell or session.
type digest struct {
	SHA256 string             `json:"sha256"`
	Values map[string]float64 `json:"values"`
}

// digestOf builds a digest from a Result.Metrics JSON encoding (the bytes
// metrics.Set.MarshalJSON writes, which lvmd result frames carry
// verbatim). extra values, such as churn's management counters, join the
// readable part and the hash.
func digestOf(metricsJSON []byte, extra map[string]float64) (digest, map[string]float64, error) {
	var all map[string]float64
	if err := json.Unmarshal(metricsJSON, &all); err != nil {
		return digest{}, nil, fmt.Errorf("decoding metrics: %w", err)
	}
	h := sha256.New()
	h.Write(metricsJSON)
	d := digest{Values: map[string]float64{}}
	for _, n := range digestNames {
		if v, ok := all[n]; ok {
			d.Values[n] = v
		}
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.Values[k] = extra[k]
		fmt.Fprintf(h, "|%s=%v", k, extra[k])
	}
	d.SHA256 = hex.EncodeToString(h.Sum(nil))
	return d, all, nil
}

// diff lists the values on which got departs from want.
func (want digest) diff(got digest) []string {
	var out []string
	if want.SHA256 != got.SHA256 {
		out = append(out, "metrics hash")
	}
	names := make([]string, 0, len(want.Values))
	for n := range want.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if g, ok := got.Values[n]; !ok || g != want.Values[n] {
			out = append(out, fmt.Sprintf("%s=%v want %v", n, got.Values[n], want.Values[n]))
		}
	}
	return out
}

// reference is the committed set of digests for referenceSeed, keyed by
// cell or session identity.
type reference struct {
	Seed  int64             `json:"seed"`
	Cells map[string]digest `json:"cells"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return r, fmt.Errorf("reference.json: %w", err)
	}
	if r.Cells == nil {
		r.Cells = map[string]digest{}
	}
	return r, nil
}

// checker verifies every simulated outcome a run produces and counts the
// attempts and failures the result line reports.
type checker struct {
	ref       reference
	attempted int
	failed    int
	log       io.Writer
	// seen holds the first digest observed per key and seed: a repeat of
	// the same inputs must simulate identically, and the digests seen at
	// referenceSeed can be written out as the new reference.
	seen map[seenKey]digest
}

type seenKey struct {
	key  string
	seed int64
}

func newChecker(ref reference, log io.Writer) *checker {
	return &checker{ref: ref, log: log, seen: map[seenKey]digest{}}
}

// fail counts one failed attempt.
func (c *checker) fail(what string, err error) {
	c.attempted++
	c.failed++
	fmt.Fprintf(c.log, "FAIL %s: %v\n", what, err)
}

// ok counts one successful attempt.
func (c *checker) ok() { c.attempted++ }

// ops counts n page-table operations, failed of which did not succeed.
func (c *checker) ops(n, failed int) {
	c.attempted += n
	c.failed += failed
	if failed > 0 {
		fmt.Fprintf(c.log, "FAIL %d of %d page-table operations\n", failed, n)
	}
}

// outcome checks one cell or session simulated at seed. Every seed must
// show zero faults and the full access count and repeat exactly within a
// run; at the reference seed the digest must also equal the committed one.
func (c *checker) outcome(key string, seed int64, d digest, wantAccesses uint64) {
	problems := problemsOf(c.ref, key, seed, d, wantAccesses)
	sk := seenKey{key, seed}
	if prev, dup := c.seen[sk]; dup {
		for _, p := range prev.diff(d) {
			problems = append(problems, "differs from an earlier run of the same inputs: "+p)
		}
	} else {
		c.seen[sk] = d
	}
	if len(problems) > 0 {
		c.fail(fmt.Sprintf("%s seed=%d", key, seed), fmt.Errorf("%v", problems))
		return
	}
	c.ok()
}

// problemsOf is outcome's pure core.
func problemsOf(ref reference, key string, seed int64, d digest, wantAccesses uint64) []string {
	var problems []string
	if f := d.Values["run.faults"]; f != 0 {
		problems = append(problems, fmt.Sprintf("%v faults", f))
	}
	if a := d.Values["run.accesses"]; a != float64(wantAccesses) {
		problems = append(problems, fmt.Sprintf("%v accesses, want %d", a, wantAccesses))
	}
	if seed == ref.Seed {
		want, ok := ref.Cells[key]
		switch {
		case !ok:
			problems = append(problems, "no reference digest")
		default:
			problems = append(problems, want.diff(d)...)
		}
	}
	return problems
}

// writeReference merges the digests seen at referenceSeed into the
// reference file at path.
func (c *checker) writeReference(path string) error {
	r := reference{Seed: referenceSeed, Cells: map[string]digest{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, d := range c.seen {
		if k.seed == referenceSeed {
			r.Cells[k.key] = d
		}
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
