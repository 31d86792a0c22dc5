package lint_test

import (
	"strings"
	"testing"

	"lvm/internal/lint"
)

// loadFixture loads testdata/src/callgraph as lvm/test/callgraph and
// builds its call graph.
func loadFixture(t *testing.T) ([]*lint.Package, *lint.Graph) {
	t.Helper()
	loader, err := lint.NewLoader("testdata/src/callgraph")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir("testdata/src/callgraph", "lvm/test/callgraph")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, lint.BuildGraph(pkgs)
}

const fixturePkg = "lvm/test/callgraph"

// reached returns the set of IDs a reachability query visited.
func reached(r *lint.Reach) map[lint.FuncID]bool {
	set := map[lint.FuncID]bool{}
	for _, id := range r.Order() {
		set[id] = true
	}
	return set
}

// TestGraphInterfaceDispatch: total calls Area through the Shape
// interface; CHA must resolve the site to BOTH concrete implementations.
func TestGraphInterfaceDispatch(t *testing.T) {
	_, g := loadFixture(t)
	total := g.Lookup(lint.FuncID(fixturePkg + ".total"))
	if total == nil {
		t.Fatal("no node for total")
	}
	want := map[lint.FuncID]bool{
		lint.FuncID("(" + fixturePkg + ".Square).Area"):  false,
		lint.FuncID("(*" + fixturePkg + ".Circle).Area"): false,
	}
	for _, c := range total.Calls {
		if c.Kind != lint.CallInterface {
			continue
		}
		for _, tgt := range c.Targets {
			if _, ok := want[tgt.ID]; ok {
				want[tgt.ID] = true
			}
		}
	}
	for id, hit := range want {
		if !hit {
			t.Errorf("interface call in total does not target %s", id)
		}
	}
}

// TestGraphReach: reachability from entry includes the dispatch targets
// and excludes the disconnected allocator chain; Path renders the chain
// root-first with arrows.
func TestGraphReach(t *testing.T) {
	_, g := loadFixture(t)
	entry := g.Lookup(lint.FuncID(fixturePkg + ".entry"))
	if entry == nil {
		t.Fatal("no node for entry")
	}
	r := g.Reach([]*lint.Node{entry}, func(*lint.Node) bool { return true })
	got := reached(r)
	for _, id := range []string{
		fixturePkg + ".total",
		"(" + fixturePkg + ".Square).Area",
		"(*" + fixturePkg + ".Circle).Area",
	} {
		if !got[lint.FuncID(id)] {
			t.Errorf("%s not reachable from entry", id)
		}
	}
	for _, id := range []string{fixturePkg + ".alloc", fixturePkg + ".callsAlloc"} {
		if got[lint.FuncID(id)] {
			t.Errorf("%s reachable from entry; should be disconnected", id)
		}
	}
	path := r.Path(lint.FuncID("(" + fixturePkg + ".Square).Area"))
	if !strings.Contains(path, "entry") || !strings.Contains(path, "→") {
		t.Errorf("Path = %q; want an arrow chain starting at entry", path)
	}
}

// TestFactsFixpoint: direct facts (allocation, receiver write, lock
// acquisition) must propagate one call level to their transitive callers.
func TestFactsFixpoint(t *testing.T) {
	pkgs, g := loadFixture(t)
	fs := lint.ComputeFacts(g, pkgs, nil)
	cases := []struct {
		id   string
		want func(lint.FuncFact) bool
		desc string
	}{
		{fixturePkg + ".alloc", func(f lint.FuncFact) bool { return f.Allocates }, "direct make → Allocates"},
		{fixturePkg + ".callsAlloc", func(f lint.FuncFact) bool { return f.Allocates }, "transitive Allocates"},
		{fixturePkg + ".entry", func(f lint.FuncFact) bool { return !f.Allocates }, "no allocation on the dispatch chain"},
		{"(*" + fixturePkg + ".counter).bump", func(f lint.FuncFact) bool { return f.Mutates }, "direct receiver write → Mutates"},
		{"(*" + fixturePkg + ".counter).bumpTwice", func(f lint.FuncFact) bool { return f.Mutates }, "transitive Mutates via receiver-rooted call"},
		{"(*" + fixturePkg + ".counter).locked", func(f lint.FuncFact) bool { return f.Locks }, "direct mu.Lock → Locks"},
		{"(*" + fixturePkg + ".counter).viaLocked", func(f lint.FuncFact) bool { return f.Locks }, "transitive Locks"},
	}
	for _, c := range cases {
		f, ok := fs.Lookup(lint.FuncID(c.id))
		if !ok {
			t.Errorf("no fact for %s", c.id)
			continue
		}
		if !c.want(f) {
			t.Errorf("%s: fact %+v fails %s", c.id, f, c.desc)
		}
	}
	if f, _ := fs.Lookup(lint.FuncID(fixturePkg + ".callsAlloc")); !strings.Contains(f.AllocWhat, "alloc") {
		t.Errorf("callsAlloc.AllocWhat = %q; want it to name the allocating callee", f.AllocWhat)
	}
}

// TestGraphDeterminism: two independent builds over the same source
// produce identical node orders and identical facts for every node.
func TestGraphDeterminism(t *testing.T) {
	pkgs1, g1 := loadFixture(t)
	pkgs2, g2 := loadFixture(t)
	n1, n2 := g1.Nodes(), g2.Nodes()
	if len(n1) != len(n2) {
		t.Fatalf("node counts differ: %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i].ID != n2[i].ID {
			t.Fatalf("node order diverges at %d: %s vs %s", i, n1[i].ID, n2[i].ID)
		}
	}
	f1 := lint.ComputeFacts(g1, pkgs1, nil)
	f2 := lint.ComputeFacts(g2, pkgs2, nil)
	for _, n := range n1 {
		a, ok1 := f1.Lookup(n.ID)
		b, ok2 := f2.Lookup(n.ID)
		if !ok1 || !ok2 || a != b {
			t.Errorf("%s: facts differ between identical builds: %+v vs %+v", n.ID, a, b)
		}
	}
}
