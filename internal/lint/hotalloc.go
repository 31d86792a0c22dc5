package lint

// hotalloc statically seals the zero-allocation invariant of the
// translate-then-access hot path. PR 4 made sim.step allocation-free and
// guards it dynamically with TestStepZeroAllocs, but only at the handful
// of scheme/config pairs the test runs; a new scheme or a refactor can
// reintroduce an allocation on an untested path and silently regress
// ns/op. hotalloc walks the whole-program call graph instead: from the
// roots — sim.step, CPU.translate, and every Walk/WalkInto method of a
// type implementing mmu.Walker — it visits everything reachable inside
// the hardware-model packages and flags every heap-allocating construct,
// and judges calls that leave the scope by the callee's Allocates fact.

import (
	"go/types"
)

// hotAllocPkgs are the packages whose functions the hot-path traversal
// descends into: the simulator core, the MMU/TLB/cache/DRAM hardware
// models, every page-table scheme, and the arithmetic/addressing helpers
// they lean on. Calls that leave this set (phys allocation, oskernel
// fault handling, metrics snapshotting, stdlib) are frontier-checked
// against facts at the call site instead: allocating there is either a
// bug or an audited //lint:allow with a reason (e.g. the OS-side fault
// path, which is software, not hardware).
var hotAllocPkgs = map[string]bool{
	ModulePath + "/internal/sim":       true,
	ModulePath + "/internal/mmu":       true,
	ModulePath + "/internal/tlb":       true,
	ModulePath + "/internal/cache":     true,
	ModulePath + "/internal/dram":      true,
	ModulePath + "/internal/core":      true,
	ModulePath + "/internal/radix":     true,
	ModulePath + "/internal/ecpt":      true,
	ModulePath + "/internal/fpt":       true,
	ModulePath + "/internal/ideal":     true,
	ModulePath + "/internal/asap":      true,
	ModulePath + "/internal/victima":   true,
	ModulePath + "/internal/revelator": true,
	ModulePath + "/internal/gapped":    true,
	ModulePath + "/internal/hashpt":    true,
	ModulePath + "/internal/model":     true,
	ModulePath + "/internal/blake2b":   true,
	ModulePath + "/internal/fixed":     true,
	ModulePath + "/internal/addr":      true,
	ModulePath + "/internal/pte":       true,
	ModulePath + "/internal/stats":     true,
	ModulePath + "/internal/vas":       true,
	ModulePath + "/internal/workload":  true,
}

func inHotAllocScope(path string) bool { return hotAllocPkgs[path] }

// HotAlloc flags heap allocation reachable from the translation hot path.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "hotalloc statically seals the zero-allocation translate hot path. " +
		"From the roots sim.step, CPU.translate, CPU.FastForward, the " +
		"serving drive loop's inner call (Session.Step), and every scheme walker's " +
		"Walk/WalkInto/WalkBatch/Lookup (resolved through the cross-package " +
		"call graph, interface dispatch included), it flags every reachable " +
		"heap-allocating construct: make/new, appends outside the " +
		"`x = append(x, …)` + `x = x[:0]` reuse discipline, escaping " +
		"composite literals, closure creation, interface boxing at call " +
		"boundaries, string concatenation and conversions, and go " +
		"statements. Calls leaving the hardware-model package set are " +
		"judged by the callee's Allocates fact at the call site, " +
		"so audited exceptions (the OS fault path, bounded warm-up " +
		"appends) carry a //lint:allow where the hot path meets them. " +
		"TestStepZeroAllocs remains the dynamic backstop for what static " +
		"analysis deliberately skips (map writes, defer).",
	RunProgram: runHotAlloc,
	Covers:     inHotAllocScope,
}

func runHotAlloc(pass *ProgramPass) {
	prog := pass.Prog
	g := prog.Graph
	walkerIface := g.LookupInterface(ModulePath+"/internal/mmu", "Walker")

	followable := func(n *Node) bool {
		return inHotAllocScope(n.Pkg.PkgPath) && !n.InTestFile()
	}

	var roots []*Node
	for _, n := range g.Nodes() {
		if n.Fn == nil || !followable(n) {
			continue
		}
		recv := n.Recv()
		switch n.Fn.Name() {
		case "step", "translate", "FastForward":
			if n.Pkg.PkgPath == ModulePath+"/internal/sim" && recv != nil && isCPUType(recv) {
				roots = append(roots, n)
			}
		case "Step":
			// Session.Step is the serving drive loop's inner call (lvmd runs
			// every tenant through it), so it inherits the same sealed
			// zero-allocation bar as the step it loops over.
			if n.Pkg.PkgPath == ModulePath+"/internal/sim" && recv != nil && isSessionType(recv) {
				roots = append(roots, n)
			}
		case "Walk", "WalkInto", "WalkBatch", "Lookup":
			if recv != nil && walkerIface != nil && implementsIface(recv, walkerIface) {
				roots = append(roots, n)
			}
		}
	}

	reach := g.Reach(roots, followable)
	trunc := map[*Package]map[types.Object]bool{}
	seen := map[string]bool{}
	report := func(pkg *Package, site allocSite, via string) {
		key := pkg.Fset.Position(site.pos).String() + "|" + site.what
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(pkg, site.pos, "hot-path allocation: %s (reachable via %s)", site.what, via)
	}

	for _, id := range reach.Order() {
		n := g.Lookup(id)
		if n == nil || !followable(n) {
			continue // frontier nodes are judged at their call sites
		}
		via := reach.Path(id)
		if trunc[n.Pkg] == nil {
			trunc[n.Pkg] = collectTruncations(n.Pkg)
		}
		for _, site := range scanAllocs(n.Pkg, n, trunc[n.Pkg]) {
			report(n.Pkg, site, via)
		}
		for _, c := range n.Calls {
			for _, t := range c.Targets {
				if followable(t) {
					continue // traversed; constructs reported in place
				}
				if f, ok := prog.Facts.Lookup(t.ID); ok && f.Allocates {
					report(n.Pkg, allocSite{pos: c.Pos,
						what: "call to " + string(shortID(t.ID)) + ", which allocates (" + f.AllocWhat + ")"}, via)
				}
			}
			for _, ext := range c.Externals {
				if f := externalFact(ext); f.Allocates {
					report(n.Pkg, allocSite{pos: c.Pos,
						what: "call to " + string(shortID(ext.ID)) + ", which allocates (" + f.AllocWhat + ")"}, via)
				}
			}
		}
	}
}

func isCPUType(t types.Type) bool {
	return isNamedType(t, ModulePath+"/internal/sim", "CPU")
}

func isSessionType(t types.Type) bool {
	return isNamedType(t, ModulePath+"/internal/sim", "Session")
}

// implementsIface reports whether the receiver type (value or pointer)
// satisfies iface.
func implementsIface(recv types.Type, iface *types.Interface) bool {
	if p, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = p.Elem()
	}
	return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
}
