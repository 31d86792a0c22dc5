package lint

// sortedfree is the ROADMAP-requested allocator-hygiene rule: physical
// frames must never be freed from inside a map iteration. Go randomizes
// map order, so `for vpn := range pages { mem.Free(...) }` hands frames
// back to the buddy allocator in a different order every run; the
// allocator's split/merge history — and with it the §7.3 fragmentation
// accounting — stops being reproducible. The sanctioned idiom is
// oskernel.Kill's: collect the keys, sort.Slice them, then free in
// sorted order.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// sortedFreePkgs is the issue-scoped package set for the coverage test;
// the analyzer itself additionally polices any package that imports
// internal/phys (every page-table scheme frees frames on Release).
var sortedFreePkgs = map[string]bool{
	ModulePath + "/internal/oskernel": true,
	ModulePath + "/internal/phys":     true,
}

func inSortedFreeScope(path string) bool { return sortedFreePkgs[path] }

// SortedFree flags frame frees inside map iterations.
var SortedFree = &Analyzer{
	Name: "sortedfree",
	Doc: "sortedfree forbids freeing physical frames from inside a map " +
		"iteration in internal/oskernel, internal/phys, and every package " +
		"that imports the physical allocator: Go randomizes map order, so " +
		"order-dependent free sequences make the buddy allocator's " +
		"split/merge history irreproducible run to run. Collect the keys, " +
		"sort them, then free — the oskernel.Kill idiom.",
	Run:    runSortedFree,
	Covers: inSortedFreeScope,
}

const physPkgPath = ModulePath + "/internal/phys"

func runSortedFree(pass *Pass) {
	inScope := inSortedFreeScope(pass.PkgPath) || pass.PkgPath == physPkgPath
	if !inScope {
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == physPkgPath {
				inScope = true
				break
			}
		}
	}
	if !inScope {
		return
	}
	// Nested map ranges would visit an inner free twice (once per
	// enclosing RangeStmt); report each call position once.
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(x ast.Node) bool {
			rng, ok := x.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(y ast.Node) bool {
				call, ok := y.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !strings.HasPrefix(sel.Sel.Name, "Free") {
					return true
				}
				recv := pass.Info.TypeOf(sel.X)
				if recv == nil || !isNamedType(recv, physPkgPath, "Memory") {
					return true
				}
				if reported[call.Pos()] {
					return true
				}
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(), "freeing frames inside a map iteration scrambles the buddy allocator's history run to run; collect the keys, sort, then free (the oskernel.Kill idiom)")
				return true
			})
			return true
		})
	}
}
