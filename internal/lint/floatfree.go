package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// floatFreeFiles are the hardware-model hot-path files inside
// internal/core: the walk itself, the hardware walker, and the insert paths
// that size and predict into hardware-resident tables. The OS-side training
// code (build.go) legitimately runs in floating point — the paper trains in
// float and quantizes with fixed.FromFloat — so it is deliberately outside
// the scope.
var floatFreeFiles = map[string]bool{
	"walk.go":   true,
	"hw.go":     true,
	"insert.go": true,
}

// floatFreePkgs are whole packages modeling hardware structures.
var floatFreePkgs = map[string]bool{
	ModulePath + "/internal/mmu": true,
	ModulePath + "/internal/tlb": true,
}

// FloatFree flags float32/float64 arithmetic in hardware-model hot paths.
// The hardware page walker computes exclusively in Q44.20 fixed point
// (paper §4.5/§7.4); a float sneaking into walk.go or the MMU/TLB models
// means the simulation is computing something no hardware would. Reporting
// helpers — functions whose name ends in Rate/Ratio/Percent, or String/
// Float — are allowlisted: hit-rate division for stats output is not model
// math.
var FloatFree = &Analyzer{
	Name: "floatfree",
	Doc:  "flags float arithmetic in hardware-model hot paths (core walk/hw/insert, mmu, tlb) outside stats/reporting helpers",
	Run:  runFloatFree,
	// core counts as covered even though only its hot-path files are
	// checked: the analyzer does look at the package, file by file.
	Covers: func(path string) bool {
		return floatFreePkgs[path] || path == ModulePath+"/internal/core"
	},
}

// reportingFunc reports whether a function name is an allowlisted
// stats/reporting helper.
func reportingFunc(name string) bool {
	return strings.HasSuffix(name, "Rate") || strings.HasSuffix(name, "Ratio") ||
		strings.HasSuffix(name, "Percent") || name == "String" || name == "Float"
}

func runFloatFree(pass *Pass) {
	inScope := floatFreePkgs[pass.PkgPath]
	isFloat := func(e ast.Expr) bool {
		t := pass.Info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if !inScope && !(pass.PkgPath == ModulePath+"/internal/core" && floatFreeFiles[pass.FileName(f.Pos())]) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || reportingFunc(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if arithOps[n.Op] && (isFloat(n.X) || isFloat(n.Y)) {
						pass.Reportf(n.OpPos, "float arithmetic in hardware-model hot path; compute in fixed.Q (or move to a reporting helper)")
					}
				case *ast.UnaryExpr:
					if n.Op == token.SUB && isFloat(n.X) {
						pass.Reportf(n.OpPos, "float arithmetic in hardware-model hot path; compute in fixed.Q (or move to a reporting helper)")
					}
				case *ast.AssignStmt:
					if _, ok := arithAssignOps[n.Tok]; ok && len(n.Lhs) == 1 && isFloat(n.Lhs[0]) {
						pass.Reportf(n.TokPos, "float arithmetic in hardware-model hot path; compute in fixed.Q (or move to a reporting helper)")
					}
				}
				return true
			})
		}
	}
}
