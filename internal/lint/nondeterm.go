package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// wallclockPkg is the single package allowed to read the wall clock. It
// exists so throughput reporting in the benchmark drivers is explicitly
// labelled as measurement-only, instead of the allowlist being a path hack.
const wallclockPkg = ModulePath + "/internal/wallclock"

// simPkgs are the packages whose behavior feeds simulated results and must
// therefore be bit-for-bit deterministic run to run (EXPERIMENTS.md numbers
// are reproduced exactly; Virtuoso and the RISC-V TLB-simulation work both
// call this out as the prerequisite for trustworthy VM evaluation).
var simPkgs = map[string]bool{
	ModulePath + "/internal/sim":      true,
	ModulePath + "/internal/core":     true,
	ModulePath + "/internal/oskernel": true,
	// internal/metrics builds the serialized snapshot sets whose byte
	// output the CI regression gate compares across runs: a map range
	// there would shuffle JSON key order between invocations.
	ModulePath + "/internal/metrics": true,
	// internal/lvmd serves simulation results over the wire under a
	// bit-identity contract (served == standalone, byte for byte); a map
	// range there could reorder session teardown or frame emission.
	ModulePath + "/internal/lvmd": true,
	// internal/wire frames every lvmd message; it is held to the same bar
	// as the daemon whose framing moved into it.
	ModulePath + "/internal/wire": true,
}

// inSimScope also matches internal/experiments and every subpackage by
// prefix, so the parallel scheduler (internal/experiments/sched) is held to
// the same order-independence bar as the experiments it executes: a map
// range there could reorder results between worker counts.
func inSimScope(path string) bool {
	if simPkgs[path] {
		return true
	}
	exp := ModulePath + "/internal/experiments"
	return path == exp || strings.HasPrefix(path, exp+"/")
}

// NonDeterm flags sources of run-to-run nondeterminism in product code:
//
//   - time.Now anywhere in the module except internal/wallclock (and test
//     files): simulated results must never depend on the wall clock;
//   - package-level math/rand functions (rand.Intn, rand.Float64, …), which
//     draw from the global, potentially contended and unseeded source;
//     seeded rand.New(rand.NewSource(seed)) instances are fine;
//   - map iteration in the simulator packages whose result depends on
//     iteration order. Order-insensitive bodies — pure commutative integer
//     accumulation, deletes — are allowed, as is the collect-keys idiom when
//     the collected slice is sorted later in the same block.
var NonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc:  "flags time.Now, global math/rand, and order-dependent map iteration in simulator packages",
	Run:  runNonDeterm,
	// The clock/rand rules are module-wide; Covers declares the stricter
	// map-iteration scope, which is what the suite coverage test audits.
	Covers: func(path string) bool { return inSimScope(StripVariant(path)) },
}

func runNonDeterm(pass *Pass) {
	if pass.PkgPath == wallclockPkg {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pass.checkClockAndRand(n)
			case *ast.BlockStmt:
				if inSimScope(pass.PkgPath) {
					pass.checkMapRanges(n)
				}
			}
			return true
		})
	}
}

// pkgFuncCall returns (package path, function name) when e calls a
// package-level function through a selector, else ("", "").
func (p *Pass) pkgFuncCall(call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.Info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

func (p *Pass) checkClockAndRand(call *ast.CallExpr) {
	pkg, name := p.pkgFuncCall(call)
	switch pkg {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			p.Reportf(call.Pos(), "wall-clock read time.%s in simulation code; use internal/wallclock for measurement-only timing", name)
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			// Constructors of explicitly seeded generators are the
			// sanctioned route.
		default:
			p.Reportf(call.Pos(), "global math/rand function rand.%s; use a seeded rand.New(rand.NewSource(seed)) instance", name)
		}
	}
}

// checkMapRanges examines every range-over-map statement directly inside
// block and flags the order-dependent ones.
func (p *Pass) checkMapRanges(block *ast.BlockStmt) {
	for i, stmt := range block.List {
		rs, ok := unwrapLabel(stmt).(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := p.Info.TypeOf(rs.X)
		if t == nil {
			continue
		}
		if _, isMap := types.Unalias(t).Underlying().(*types.Map); !isMap {
			continue
		}
		collected, insensitive := p.classifyRangeBody(rs)
		if insensitive {
			continue
		}
		if len(collected) > 0 && p.sortedLater(block.List[i+1:], collected) {
			continue
		}
		p.Reportf(rs.For, "map iteration order leaks into results; collect and sort the keys first, or restrict the body to commutative integer accumulation")
	}
}

func unwrapLabel(s ast.Stmt) ast.Stmt {
	for {
		l, ok := s.(*ast.LabeledStmt)
		if !ok {
			return s
		}
		s = l.Stmt
	}
}

// classifyRangeBody inspects a map-range body. It returns the names of
// variables the loop appends to (the collect-then-sort idiom), and whether
// the body is inherently order-insensitive: every statement is either a
// commutative integer accumulation (+=, |=, &=, ^=, ++, --), a boolean set
// (x = true/false), or a delete from a map.
func (p *Pass) classifyRangeBody(rs *ast.RangeStmt) (collected []string, insensitive bool) {
	insensitive = true
	for _, s := range rs.Body.List {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if name, ok := p.appendTarget(s); ok {
				collected = append(collected, name)
				insensitive = false
				continue
			}
			if p.commutativeAssign(s) {
				continue
			}
			return nil, false
		case *ast.IncDecStmt:
			if isIntType(p.Info.TypeOf(s.X)) {
				continue
			}
			return nil, false
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
						continue
					}
				}
			}
			return nil, false
		default:
			return nil, false
		}
	}
	if len(collected) > 0 {
		return collected, false
	}
	return nil, insensitive
}

// appendTarget matches `x = append(x, …)` and returns x's root identifier.
func (p *Pass) appendTarget(s *ast.AssignStmt) (string, bool) {
	if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return "", false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return "", false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return "", false
	}
	if root := rootIdent(s.Lhs[0]); root != "" {
		return root, true
	}
	return "", false
}

// commutativeAssign reports whether s is an order-insensitive accumulation:
// an integer +=, |=, &=, ^=, or an assignment of a constant to a boolean
// (set-a-flag inside the loop).
func (p *Pass) commutativeAssign(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return len(s.Lhs) == 1 && isIntType(p.Info.TypeOf(s.Lhs[0]))
	case token.ASSIGN:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		if t := p.Info.TypeOf(s.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsBoolean != 0 {
				if id, ok := s.Rhs[0].(*ast.Ident); ok && (id.Name == "true" || id.Name == "false") {
					return true
				}
			}
		}
	}
	return false
}

// sortedLater reports whether a later statement in the same block sorts one
// of the collected slices (sort.Strings(keys), sort.Slice(keys, …),
// slices.Sort(keys), …).
func (p *Pass) sortedLater(rest []ast.Stmt, collected []string) bool {
	names := map[string]bool{}
	for _, n := range collected {
		names[n] = true
	}
	for _, s := range rest {
		es, ok := unwrapLabel(s).(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		pkg, fn := p.pkgFuncCall(call)
		sorts := false
		switch pkg {
		case "sort":
			sorts = fn == "Sort" || fn == "Stable" || fn == "Slice" || fn == "SliceStable" ||
				fn == "Strings" || fn == "Ints" || fn == "Float64s"
		case "slices":
			sorts = strings.HasPrefix(fn, "Sort")
		}
		if !sorts {
			continue
		}
		for _, arg := range call.Args {
			if names[rootIdent(arg)] {
				return true
			}
		}
	}
	return false
}

// rootIdent returns the leftmost identifier of an lvalue-ish expression
// (x, x.f, x[i], &x, *x), or "".
func rootIdent(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v.Name
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return ""
		}
	}
}

func isIntType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
