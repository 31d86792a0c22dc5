package lint_test

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
	"testing"

	"lvm/internal/lint"
	"lvm/internal/lint/linttest"
)

// Each analyzer is exercised against a golden testdata package seeded with
// violations (the `// want` comments) and clean idioms that must stay
// silent. Scoped analyzers are additionally checked against impersonated
// import paths: the testdata is loaded *as* the package the rule targets or
// exempts.

func TestFixedQ(t *testing.T) {
	linttest.Run(t, lint.FixedQ, "testdata/src/fixedq", "lvm/test/fixedq")
}

func TestFixedQSilentInsideFixed(t *testing.T) {
	linttest.Run(t, lint.FixedQ, "testdata/src/fixedq_exempt", "lvm/internal/fixed")
}

func TestAddrTypes(t *testing.T) {
	linttest.Run(t, lint.AddrTypes, "testdata/src/addrtypes", "lvm/test/addrtypes")
}

func TestNonDeterm(t *testing.T) {
	linttest.Run(t, lint.NonDeterm, "testdata/src/nondeterm", "lvm/internal/sim")
}

func TestNonDetermMapRuleScoped(t *testing.T) {
	linttest.Run(t, lint.NonDeterm, "testdata/src/nondeterm_unscoped", "lvm/internal/workload")
}

// The map-iteration rule extends by prefix to the experiment subpackages:
// the parallel scheduler must not let iteration order reorder results.
func TestNonDetermCoversScheduler(t *testing.T) {
	linttest.Run(t, lint.NonDeterm, "testdata/src/nondeterm", "lvm/internal/experiments/sched")
}

// internal/metrics builds the snapshot sets the regression gate compares
// byte-for-byte, so the map-iteration rule covers it too.
func TestNonDetermCoversMetrics(t *testing.T) {
	linttest.Run(t, lint.NonDeterm, "testdata/src/nondeterm", "lvm/internal/metrics")
}

// TestSuiteScopeCoverage generalizes the point check above: every internal
// package that imports the simulator core (sim, mmu, or metrics) feeds
// simulated results, so at least one scoped analyzer must claim it via
// Covers. A new package wired into the simulator without lint coverage —
// or a scope map that silently drifts out from under the import graph —
// fails here.
func TestSuiteScopeCoverage(t *testing.T) {
	pkgs := loadModule(t)
	simCore := map[string]bool{
		"lvm/internal/sim":     true,
		"lvm/internal/mmu":     true,
		"lvm/internal/metrics": true,
	}
	var scoped []*lint.Analyzer
	for _, a := range lint.Analyzers() {
		if a.Covers != nil {
			scoped = append(scoped, a)
		}
	}
	if len(scoped) < 5 {
		t.Fatalf("only %d analyzers declare Covers; scope map is degenerate", len(scoped))
	}
	checked := 0
	for _, pkg := range pkgs {
		if pkg.IsXTest || !strings.HasPrefix(pkg.PkgPath, "lvm/internal/") {
			continue
		}
		if pkg.PkgPath == "lvm/internal/lint" || strings.HasPrefix(pkg.PkgPath, "lvm/internal/lint/") {
			continue // the linter analyzes the simulator, not itself
		}
		importsCore := simCore[pkg.PkgPath]
		for _, imp := range pkg.Types.Imports() {
			if simCore[imp.Path()] {
				importsCore = true
			}
		}
		if !importsCore {
			continue
		}
		checked++
		covered := false
		for _, a := range scoped {
			if a.Covers(pkg.PkgPath) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("%s imports the simulator core but no analyzer's Covers claims it", pkg.PkgPath)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d simulator-importing packages found; import-graph discovery is broken", checked)
	}
}

func TestNoPanic(t *testing.T) {
	linttest.Run(t, lint.NoPanic, "testdata/src/nopanic", "lvm/internal/experiments/sched")
}

// Outside the simulator/experiment packages (here: workload), panics are the
// caller's business and the analyzer stays silent.
func TestNoPanicUnscoped(t *testing.T) {
	linttest.Run(t, lint.NoPanic, "testdata/src/nopanic_unscoped", "lvm/internal/workload")
}

func TestFloatFree(t *testing.T) {
	linttest.Run(t, lint.FloatFree, "testdata/src/floatfree", "lvm/internal/tlb")
}

// The testdata walker implements mmu.Walker (the real interface, resolved
// from module source), so its Walk method is a traversal root: reachable
// constructs, frontier stdlib calls, and call-boundary boxing all fire;
// the unreachable function and the //lint:allow'd site stay silent.
func TestHotAlloc(t *testing.T) {
	linttest.Run(t, lint.HotAlloc, "testdata/src/hotalloc", "lvm/internal/radix")
}

// TestHotAllocResetDeletion is the mutation case the acceptance demands:
// two walkers differing only in the `x = x[:0]` truncation. Deleting the
// Reset discipline must flip the self-append from silent to flagged.
func TestHotAllocResetDeletion(t *testing.T) {
	linttest.Run(t, lint.HotAlloc, "testdata/src/hotalloc_reset", "lvm/internal/ecpt")
}

func TestSyncSafe(t *testing.T) {
	linttest.Run(t, lint.SyncSafe, "testdata/src/syncsafe", "lvm/internal/experiments")
}

// Outside the goroutine-running packages the same code is silent: the
// hardware models are single-threaded by design.
func TestSyncSafeUnscoped(t *testing.T) {
	linttest.Run(t, lint.SyncSafe, "testdata/src/syncsafe_unscoped", "lvm/internal/tlb")
}

// snapshotpure is module-wide: any package loaded as any path is checked.
func TestSnapshotPure(t *testing.T) {
	linttest.Run(t, lint.SnapshotPure, "testdata/src/snapshotpure", "lvm/test/snapshotpure")
}

func TestSortedFree(t *testing.T) {
	linttest.Run(t, lint.SortedFree, "testdata/src/sortedfree", "lvm/internal/oskernel")
}

// TestAllowSuppression covers the //lint:allow contract: same-line and
// line-above suppression, the mandatory reason, and analyzer matching.
func TestAllowSuppression(t *testing.T) {
	linttest.Run(t, lint.FixedQ, "testdata/src/allow", "lvm/test/allow")
}

var module struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

// loadModule type-checks the whole module once per test binary; the
// whole-module tests share the result and skip themselves in -short mode.
func loadModule(t *testing.T) []*lint.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	module.once.Do(func() {
		loader, err := lint.NewLoader(".")
		if err != nil {
			module.err = err
			return
		}
		module.pkgs, module.err = loader.LoadAll()
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs
}

// TestRepoIsLintClean enforces the full suite — per-package AND
// whole-program analyzers — over the module as a tier-1 test: a PR that
// introduces a violation without an auditable //lint:allow fails here, not
// just in CI's lvmlint step. hotalloc's reachability and syncsafe's Locks
// facts only exist with the cross-package call graph built, so the suite
// runs over the whole module at once.
func TestRepoIsLintClean(t *testing.T) {
	pkgs := loadModule(t)
	if len(pkgs) < 20 {
		t.Fatalf("loader found only %d packages; module discovery is broken", len(pkgs))
	}
	for _, d := range lint.RunSuite(pkgs, lint.Analyzers()) {
		t.Errorf("%s", d)
	}
}

// stdlibCallbacks are method names the standard library calls through an
// interface (fmt's Stringer and error, go/types' Importer): no call edge
// inside the module leads to them, so every non-test method with one of
// these names is a root.
var stdlibCallbacks = map[string]bool{
	"String": true, "Error": true, "Import": true,
}

// reachKeep lists functions that stay although nothing outside tests
// reaches them, each with its reason. They are roots, so what they call
// stays too. A function only another package's tests use cannot move into
// a _test.go file.
var reachKeep = map[lint.FuncID]string{
	"lvm/internal/lint/linttest.Run": "the golden-file harness every analyzer test runs through",
	"(*lvm/internal/sim.CPU).RunIntervals": "the standalone windowed run that the Session and " +
		"lvmd tests check served windows against",
	"(*lvm/internal/gapped.Table).Extents": "internal/core's fragmentation test counts a leaf " +
		"table's contiguous runs with it",
	"(*lvm/internal/experiments/sched.Admission).Stats": "lvmd's admission tests watch queue " +
		"depth and load through it",
	"(*lvm/internal/experiments.Runner).Execute": "the root lvm API's experiment entry point " +
		"(lvm.NewExperiments(cfg).Execute); the root benchmarks run through it",
}

// TestEveryFunctionIsReached finds dead code with the lint call graph.
// The roots are main and init of every package (cmd/*, examples/* and
// perfbench included), the root lvm package's exported functions, every
// function named in a package-level var initializer (the registries and
// scheme tables), methods the standard library calls back (stdlibCallbacks)
// and reachKeep. The edges are the CHA call edges plus every function or
// method value named in a reached body — a method value handed to a
// generic helper is reached through no call edge — iterated to a
// fixpoint. A non-test function outside that set is reached only by
// tests or by nothing: delete it, or move it into the _test.go file that
// uses it.
func TestEveryFunctionIsReached(t *testing.T) {
	pkgs := loadModule(t)
	g := lint.BuildGraph(pkgs)
	idOf := func(fn *types.Func) lint.FuncID { return lint.FuncID(fn.Origin().FullName()) }

	var roots []*lint.Node
	rooted := map[lint.FuncID]bool{}
	addRoot := func(n *lint.Node) bool {
		if n == nil || rooted[n.ID] {
			return false
		}
		rooted[n.ID] = true
		roots = append(roots, n)
		return true
	}
	for _, n := range g.Nodes() {
		if n.Fn == nil || n.InTestFile() {
			continue
		}
		name := n.Fn.Name()
		switch {
		case n.Recv() == nil && (name == "main" || name == "init"),
			n.Recv() == nil && n.Pkg.PkgPath == lint.ModulePath && n.Fn.Exported(),
			n.Recv() != nil && stdlibCallbacks[name]:
			addRoot(n)
		}
	}
	for id := range reachKeep {
		if g.Lookup(id) == nil {
			t.Errorf("reachKeep names %s, which is not a function in the module", id)
		}
		addRoot(g.Lookup(id))
	}
	// named calls fn for every function or method value named in x.
	named := func(pkg *lint.Package, x ast.Node, fn func(*lint.Node)) {
		ast.Inspect(x, func(y ast.Node) bool {
			if id, ok := y.(*ast.Ident); ok {
				if f, ok := pkg.Info.Uses[id].(*types.Func); ok {
					if n := g.Lookup(idOf(f)); n != nil {
						fn(n)
					}
				}
			}
			return true
		})
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					named(pkg, gd, func(n *lint.Node) { addRoot(n) })
				}
			}
		}
	}

	var live map[lint.FuncID]bool
	scanned := map[lint.FuncID]bool{}
	for grew := true; grew; {
		grew = false
		reach := g.Reach(roots, nil)
		live = reached(reach)
		for _, id := range reach.Order() {
			n := g.Lookup(id)
			if n == nil || scanned[id] || n.Body() == nil {
				continue
			}
			scanned[id] = true
			named(n.Pkg, n.Body(), func(m *lint.Node) {
				if !live[m.ID] && addRoot(m) {
					grew = true
				}
			})
		}
	}

	for _, n := range g.Nodes() {
		if n.Fn != nil && !n.InTestFile() && !live[n.ID] {
			t.Errorf("%s is reached by nothing outside tests: delete it, or move it into the _test.go file that uses it", n.ID)
		}
	}
}
