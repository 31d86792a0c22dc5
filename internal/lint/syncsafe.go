package lint

// syncsafe is the concurrency-discipline analyzer for the packages that
// run goroutines: the experiment pipeline and its scheduler today, the
// multi-tenant lvmd server on the ROADMAP tomorrow. Three rules:
//
//  1. no lock copies: a sync.Mutex/RWMutex/WaitGroup/Once/Cond (or any
//     struct transitively containing one) must not be passed, returned,
//     assigned, or ranged-over by value — a copied lock silently guards
//     nothing;
//  2. no untracked goroutines: a `go` statement must be tied to a
//     completion signal in scope — a sync.WaitGroup.Done, a channel send
//     or close — so the sweep can never exit while a worker still runs;
//  3. `// guarded by <mu>` discipline: a struct field annotated with
//     `// guarded by <mu>` may only be touched by functions that lock
//     that mutex in-function (directly, via a helper whose Locks fact is
//     set, or from a method whose name ends in "Locked" documenting the
//     caller-holds-lock contract).

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

func inSyncSafeScope(path string) bool {
	path = StripVariant(path)
	for _, p := range []string{
		ModulePath + "/internal/experiments",
		ModulePath + "/internal/lvmd",
		ModulePath + "/internal/wire",
		ModulePath + "/cmd/lvmd",
	} {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// SyncSafe flags concurrency-discipline violations.
var SyncSafe = &Analyzer{
	Name: "syncsafe",
	Doc: "syncsafe enforces concurrency discipline in the goroutine-running " +
		"packages (internal/experiments and its scheduler, the future " +
		"lvmd): no value copies of types containing sync.Mutex/RWMutex/" +
		"WaitGroup/Once/Cond (parameters, results, assignments, range " +
		"variables); no `go` statement without a completion signal " +
		"(WaitGroup.Done, channel send, or close) tying the goroutine to " +
		"its spawner; and `// guarded by <mu>` field annotations are " +
		"binding — annotated fields may only be accessed by functions " +
		"that lock that mutex, call a helper whose Locks fact is set, or " +
		"carry the \"Locked\" name suffix documenting the caller-holds-" +
		"lock contract.",
	RunProgram: runSyncSafe,
	Covers:     inSyncSafeScope,
}

func runSyncSafe(pass *ProgramPass) {
	for _, pkg := range pass.Prog.Packages {
		if !inSyncSafeScope(pkg.PkgPath) {
			continue
		}
		guarded := collectGuardedFields(pkg)
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkLockCopies(pass, pkg, fd)
				checkGoStmts(pass, pkg, fd)
				checkGuardedAccess(pass, pkg, fd, guarded)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Rule 1: lock copies

// containsLock reports whether t transitively contains a sync primitive
// that must not be copied. Pointers stop the search: sharing a *Mutex is
// the point.
func containsLock(t types.Type) bool {
	return containsLock1(t, map[types.Type]bool{})
}

func containsLock1(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	for _, name := range []string{"Mutex", "RWMutex", "WaitGroup", "Once", "Cond"} {
		if isNamed(t, "sync", name) {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock1(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock1(u.Elem(), seen)
	}
	return false
}

func checkLockCopies(pass *ProgramPass, pkg *Package, fd *ast.FuncDecl) {
	// Parameters, results, and by-value receivers.
	var fields []*ast.Field
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		fields = append(fields, fd.Type.Params.List...)
	}
	if fd.Type.Results != nil {
		fields = append(fields, fd.Type.Results.List...)
	}
	for _, f := range fields {
		t := pkg.Info.TypeOf(f.Type)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if containsLock(t) {
			pass.Reportf(pkg, f.Type.Pos(), "%s passes a lock by value: %s contains a sync primitive; use a pointer",
				fd.Name.Name, types.TypeString(t, types.RelativeTo(pkg.Types)))
		}
	}

	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, rhs := range x.Rhs {
				if copiesLockValue(pkg, rhs) {
					pass.Reportf(pkg, rhs.Pos(), "assignment copies %s, which contains a sync primitive; use a pointer",
						types.ExprString(rhs))
				}
			}
		case *ast.RangeStmt:
			if x.Value != nil {
				if t := pkg.Info.TypeOf(x.Value); t != nil && containsLock(t) {
					pass.Reportf(pkg, x.Value.Pos(), "range copies element values that contain a sync primitive; range over indices or pointers")
				}
			}
		}
		return true
	})
}

// copiesLockValue reports whether e reads an existing lock-containing
// value (a fresh composite literal or a call result is initialization,
// not a copy of a live lock).
func copiesLockValue(pkg *Package, e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return false
	}
	t := pkg.Info.TypeOf(e)
	return t != nil && containsLock(t)
}

// ---------------------------------------------------------------------------
// Rule 2: untracked goroutines

func checkGoStmts(pass *ProgramPass, pkg *Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		g, ok := x.(*ast.GoStmt)
		if !ok {
			return true
		}
		var body *ast.BlockStmt
		switch fun := ast.Unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			body = fun.Body
		case *ast.Ident:
			// Same-package function: check its body for a signal.
			if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
				body = findDeclBody(pkg, fn)
			}
		}
		if body == nil || !signalsCompletion(pkg, body) {
			pass.Reportf(pkg, g.Pos(), "goroutine has no completion signal (WaitGroup.Done, channel send, or close); an untracked goroutine can outlive the sweep and race its results")
		}
		return true
	})
}

func findDeclBody(pkg *Package, fn *types.Func) *ast.BlockStmt {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pkg.Info.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// signalsCompletion reports whether the goroutine body contains a
// WaitGroup.Done call, a channel send, or a close.
func signalsCompletion(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if isBuiltinCall(pkg, x, "close") {
				found = true
				return true
			}
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if ok && sel.Sel.Name == "Done" {
				if t := pkg.Info.TypeOf(sel.X); t != nil && isNamedType(t, "sync", "WaitGroup") {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// Rule 3: `// guarded by <mu>` discipline

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// guardedField is one annotated struct field.
type guardedField struct {
	field types.Object // the annotated field
	guard types.Object // the mutex field named in the annotation
	name  string       // guard name, for messages
}

// collectGuardedFields parses `// guarded by <mu>` comments on struct
// fields. The named guard must be a sibling field; a dangling name is
// reported by the caller via a nil guard entry (kept, so access checks
// still fire).
func collectGuardedFields(pkg *Package) map[types.Object]guardedField {
	out := map[types.Object]guardedField{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			st, ok := x.(*ast.StructType)
			if !ok {
				return true
			}
			// Index sibling fields by name for guard resolution.
			byName := map[string]types.Object{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					byName[name.Name] = pkg.Info.Defs[name]
				}
			}
			for _, fld := range st.Fields.List {
				text := ""
				if fld.Doc != nil {
					text += fld.Doc.Text()
				}
				if fld.Comment != nil {
					text += fld.Comment.Text()
				}
				m := guardedByRE.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				for _, name := range fld.Names {
					obj := pkg.Info.Defs[name]
					if obj == nil {
						continue
					}
					out[obj] = guardedField{field: obj, guard: byName[m[1]], name: m[1]}
				}
			}
			return true
		})
	}
	return out
}

func checkGuardedAccess(pass *ProgramPass, pkg *Package, fd *ast.FuncDecl, guarded map[types.Object]guardedField) {
	if len(guarded) == 0 {
		return
	}
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return // documented caller-holds-lock contract
	}
	holds := heldGuards(pass, pkg, fd)
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[sel.Sel]
		if obj == nil {
			if s, ok := pkg.Info.Selections[sel]; ok {
				obj = s.Obj()
			}
		}
		gf, ok := guarded[obj]
		if !ok {
			return true
		}
		if holds[gf.guard] || holds[nil] {
			return true
		}
		pass.Reportf(pkg, sel.Pos(), "field %s is // guarded by %s, but %s accesses it without locking %s",
			sel.Sel.Name, gf.name, fd.Name.Name, gf.name)
		return true
	})
}

// heldGuards returns the set of mutex field objects this function locks
// somewhere in its body (flow-insensitive, per the in-function
// discipline), plus a nil entry if it calls a helper whose Locks fact is
// set — a coarse "some lock is held" that accepts lock-wrapping helpers.
func heldGuards(pass *ProgramPass, pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	held := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			t := pkg.Info.TypeOf(sel.X)
			if t != nil && (isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")) {
				if obj := leafObj(pkg, sel.X); obj != nil {
					held[obj] = true
				}
			}
		case "Wait":
			// cond.Wait reacquires the cond's lock; holding the cond
			// counts as holding its mutex — approximated by the coarse
			// entry below only when a Lock call exists too, so no extra
			// handling is needed (Wait requires a prior Lock in-function).
		default:
			if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
				if f, ok := pass.Prog.Facts.Lookup(funcID(fn)); ok && f.Locks {
					held[nil] = true
				}
			}
		}
		return true
	})
	return held
}
