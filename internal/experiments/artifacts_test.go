package experiments

import (
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// testArtifact is shaped like the real compute-phase payloads: floats,
// counters, and a uint64-keyed map (which encoding/json round-trips through
// string keys).
type testArtifact struct {
	P50      float64           `json:"p50"`
	Ops      int               `json:"ops"`
	Fraction map[uint64]string `json:"fraction"`
}

func TestArtifactRoundTrip(t *testing.T) {
	c, err := NewRunCache(t.TempDir(), jsonSweepConfig())
	if err != nil {
		t.Fatal(err)
	}

	var miss testArtifact
	if hit, err := c.LoadArtifact("tail", &miss); err != nil || hit {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}

	want := testArtifact{P50: 42.125, Ops: 7, Fraction: map[uint64]string{1 << 18: "a", 1 << 28: "b"}}
	if err := c.StoreArtifact("tail", want); err != nil {
		t.Fatal(err)
	}
	var got testArtifact
	hit, err := c.LoadArtifact("tail", &got)
	if err != nil || !hit {
		t.Fatalf("LoadArtifact after Store: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the artifact:\n got %+v\nwant %+v", got, want)
	}
}

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
	art := testArtifact{Ops: 1}
	if err := a.StoreArtifact("tail", art); err != nil {
		t.Fatal(err)
	}

	// Corrupt JSON must be a hard error naming the artifact, never a miss.
	if err := os.WriteFile(a.artifactPath("tail"), []byte("{ truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var v testArtifact
	if _, err := a.LoadArtifact("tail", &v); err == nil {
		t.Error("corrupt artifact loaded without error")
	} else {
		for _, want := range []string{"tail", "corrupt"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	}

	// A hand-copied entry from another config's namespace is rejected by
	// the embedded fingerprint; a renamed one by the embedded name.
	if err := a.StoreArtifact("tail", art); err != nil {
		t.Fatal(err)
	}
	entry, err := os.ReadFile(a.artifactPath("tail"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b.artifactPath("tail"), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadArtifact("tail", &v); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign-fingerprint artifact accepted: %v", err)
	}
	if err := os.WriteFile(a.artifactPath("frag"), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.LoadArtifact("frag", &v); err == nil || !strings.Contains(err.Error(), "holds artifact") {
		t.Errorf("renamed artifact accepted: %v", err)
	}
}

// artifactRecorder counts artifact events alongside the core sink.
type artifactRecorder struct {
	countingSink
	mu     sync.Mutex
	cached []string
	stored []string
}

func (s *artifactRecorder) Emit(e Event) {
	s.countingSink.Emit(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case ArtifactCached:
		s.cached = append(s.cached, e.Artifact)
	case ArtifactStored:
		s.stored = append(s.stored, e.Artifact)
	}
}

// A bespoke study renders byte-identically whether its measurement was just
// computed or reloaded from the artifact cache, and the warm pass reports
// the cache hit instead of recomputing.
func TestArtifactWarmRenderIdentity(t *testing.T) {
	cache, err := NewRunCache(t.TempDir(), Quick())
	if err != nil {
		t.Fatal(err)
	}

	cold := &artifactRecorder{}
	r1 := NewRunner(Quick())
	r1.SetSink(cold)
	r1.SetArtifactCache(cache)
	res1, err := r1.Fig3Contiguity()
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.stored) != 1 || len(cold.cached) != 0 {
		t.Fatalf("cold pass: stored=%v cached=%v, want one store", cold.stored, cold.cached)
	}

	warm := &artifactRecorder{}
	r2 := NewRunner(Quick())
	r2.SetSink(warm)
	r2.SetArtifactCache(cache)
	res2, err := r2.Fig3Contiguity()
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.cached) != 1 || len(warm.stored) != 0 {
		t.Fatalf("warm pass: stored=%v cached=%v, want one cache hit", warm.stored, warm.cached)
	}
	if !reflect.DeepEqual(res1.Fraction, res2.Fraction) {
		t.Errorf("warm measurement differs:\n cold %v\n warm %v", res1.Fraction, res2.Fraction)
	}
	if res1.Table.String() != res2.Table.String() {
		t.Errorf("warm render differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s",
			res1.Table.String(), res2.Table.String())
	}
}
