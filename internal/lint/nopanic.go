package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// noPanicPkgs are the packages that model simulated hardware or drive the
// experiment pipeline. A panic anywhere on the workload-build/launch/run
// path turns a recoverable condition (an undersized physical memory, an
// unknown workload name) into a crash that takes the whole sweep down, and
// since the scheduler runs these paths on worker goroutines, an escaped
// panic there kills the process with no chance to report which run failed.
// Errors must propagate as wrapped error values instead.
var noPanicPkgs = map[string]bool{
	ModulePath + "/internal/sim":   true,
	ModulePath + "/internal/mmu":   true,
	ModulePath + "/internal/tlb":   true,
	ModulePath + "/internal/cache": true,
	ModulePath + "/internal/dram":  true,
	ModulePath + "/internal/core":  true,
}

// inNoPanicScope also matches internal/experiments and every subpackage
// (the registry, the scheduler, …) by prefix.
func inNoPanicScope(path string) bool {
	if noPanicPkgs[path] {
		return true
	}
	exp := ModulePath + "/internal/experiments"
	return path == exp || strings.HasPrefix(path, exp+"/")
}

// NoPanic bans panic calls in the simulated-hardware and experiment
// packages; failures there must return wrapped errors. Test files are
// exempt, and genuinely unreachable invariants can carry a
// //lint:allow nopanic <reason> suppression.
var NoPanic = &Analyzer{
	Name:   "nopanic",
	Doc:    "bans panic in simulator and experiment packages; propagate wrapped errors instead",
	Run:    runNoPanic,
	Covers: inNoPanicScope,
}

func runNoPanic(pass *Pass) {
	if !inNoPanicScope(pass.PkgPath) {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				pass.Reportf(call.Pos(), "panic on a simulation path; return a wrapped error so failures propagate to the scheduler and exit code")
			}
			return true
		})
	}
}
