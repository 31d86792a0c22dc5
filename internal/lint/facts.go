package lint

// facts.go is the facts seam of the whole-program layer: per-function
// summaries (allocates / mutates-receiver / acquires-locks) computed by a
// fixpoint over the call graph and consumed by the interprocedural
// analyzers:
//
//   - hotalloc judges calls that leave its scope (or the analyzed set) by
//     the callee's Allocates fact;
//   - snapshotpure judges calls from Snapshot bodies by MutatesReceiver;
//   - syncsafe accepts a guarded-field access when the enclosing function
//     calls a helper with the Locks fact.
//
// Functions with no body anywhere (standard library) are judged by a
// conservative assumption table keyed on package path: formatting,
// string-building, sorting, reflection and I/O packages are assumed to
// allocate; pure-arithmetic packages are assumed clean. Module-internal
// functions missing from the analyzed set are assumed clean: a
// whole-module run has a body for every one of them, so this only relaxes
// the golden-test harness, which loads one package at a time.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncFact is the summary of one function.
type FuncFact struct {
	// Allocates: some path through the function heap-allocates.
	Allocates bool
	// AllocWhat is the first allocation reason, for diagnostics.
	AllocWhat string
	// Mutates: the function writes through its receiver.
	Mutates bool
	// Locks: the function acquires a sync.Mutex / sync.RWMutex.
	Locks bool
}

// FactSet maps FuncIDs to their facts.
type FactSet struct {
	funcs map[FuncID]FuncFact
}

// Lookup returns the fact for id.
func (fs *FactSet) Lookup(id FuncID) (FuncFact, bool) {
	f, ok := fs.funcs[id]
	return f, ok
}

// ---------------------------------------------------------------------------
// External assumptions

// assumedAllocPrefixes lists stdlib package-path prefixes whose functions
// are assumed to allocate. The table errs toward allocation: a wrong
// "allocates" costs an audited //lint:allow, a wrong "clean" would let a
// regression through.
var assumedAllocPrefixes = []string{
	"bufio", "bytes", "compress", "container", "context", "encoding",
	"errors", "flag", "fmt", "hash", "io", "log", "math/big", "math/rand",
	"net", "os", "path", "reflect", "regexp", "runtime", "sort", "strconv",
	"strings", "text", "time",
}

// assumedCleanFuncs overrides the prefix table for specific functions
// that demonstrably do not allocate. encoding/binary's fixed-width
// byte-order accessors compile to loads/stores (the ecpt walker hashes
// through them on every walk).
var assumedCleanFuncs = map[string]bool{
	"sort.Search":                  true,
	"sort.SearchInts":              true,
	"sort.SearchFloat64s":          true,
	"sort.SearchStrings":           true,
	"strings.IndexByte":            true,
	"strings.HasPrefix":            true,
	"strings.HasSuffix":            true,
	"strings.Compare":              true,
	"strings.EqualFold":            true,
	"encoding/binary.Uint16":       true,
	"encoding/binary.Uint32":       true,
	"encoding/binary.Uint64":       true,
	"encoding/binary.PutUint16":    true,
	"encoding/binary.PutUint32":    true,
	"encoding/binary.PutUint64":    true,
	"encoding/binary.AppendUint64": false, // grows its argument; listed for clarity
}

// externalFact judges a call target with no body in the analyzed set.
func externalFact(ext ExtTarget) FuncFact {
	if strings.HasPrefix(ext.PkgPath, ModulePath+"/") || ext.PkgPath == ModulePath {
		// Module-internal without a body: only the golden-test harness,
		// which loads one package at a time, reaches here, and it
		// assumes the module packages its fixture imports are clean.
		return FuncFact{}
	}
	key := ext.PkgPath + "." + ext.Name
	if assumedCleanFuncs[key] {
		return FuncFact{}
	}
	if ext.PkgPath == "sync" {
		// Mutex/WaitGroup operations do not allocate; flag Lock acquisition.
		return FuncFact{Locks: ext.Name == "Lock" || ext.Name == "RLock"}
	}
	for _, p := range assumedAllocPrefixes {
		if ext.PkgPath == p || strings.HasPrefix(ext.PkgPath, p+"/") {
			return FuncFact{Allocates: true, AllocWhat: "assumed allocating (stdlib " + ext.PkgPath + ")"}
		}
	}
	return FuncFact{}
}

// ---------------------------------------------------------------------------
// Allocation-site scanning

// allocSite is one heap-allocating construct in a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

// collectTruncations records, per package, every slice field or variable
// that is reset with the `x = x[:0]` idiom — the reuse discipline that
// makes a later self-append amortized-allocation-free (mmu.WalkBuf's
// Reset/Add pattern from the zero-allocation hot path).
func collectTruncations(pkg *Package) map[types.Object]bool {
	trunc := map[types.Object]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
					return true
				}
				sl, ok := truncationExpr(x.Rhs[0])
				if !ok || types.ExprString(x.Lhs[0]) != types.ExprString(sl.X) {
					return true
				}
				if obj := leafObj(pkg, x.Lhs[0]); obj != nil {
					trunc[obj] = true
				}
			case *ast.CompositeLit:
				// Struct-literal form of the same discipline: a field
				// initialized to someScratch[:0] (gapped's
				// LookupResult{Clusters: t.clusterScratch[:0]}) makes
				// later self-appends to that field reuse the scratch
				// backing array.
				for _, elt := range x.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if _, ok := truncationExpr(kv.Value); !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if obj := pkg.Info.Uses[key]; obj != nil {
						trunc[obj] = true
					}
				}
			}
			return true
		})
	}
	return trunc
}

// truncationExpr reports whether e is a length-zero reslice x[:0] and
// returns the slice expression if so.
func truncationExpr(e ast.Expr) (*ast.SliceExpr, bool) {
	sl, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || sl.Slice3 {
		return nil, false
	}
	if sl.Low != nil && !isZeroLit(sl.Low) {
		return nil, false
	}
	if !isZeroLit(sl.High) {
		return nil, false
	}
	return sl, true
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// leafObj resolves the field or variable an lvalue expression ultimately
// denotes: b.pas → field pas, set → var set, t.sets[i] → field sets.
func leafObj(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := pkg.Info.Uses[e]; o != nil {
			return o
		}
		return pkg.Info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok {
			return sel.Obj()
		}
		return pkg.Info.Uses[e.Sel]
	case *ast.IndexExpr:
		return leafObj(pkg, e.X)
	case *ast.StarExpr:
		return leafObj(pkg, e.X)
	}
	return nil
}

// rootObj resolves the leftmost identifier of an expression: c.walker →
// c, t.sets[i] → t. Used for receiver-rootedness checks.
func rootObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := pkg.Info.Uses[x]; o != nil {
				return o
			}
			return pkg.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// scanAllocs returns every directly heap-allocating construct in the
// node's own body (closure bodies are scanned as their own nodes; the
// literal itself is the parent's allocation).
//
// Deliberately not flagged, with the dynamic TestStepZeroAllocs backstop:
// map writes (buckets are amortized by steady-state reuse in this
// codebase), defer statements, and interface boxing through assignment
// or return (only call-boundary boxing is checked).
func scanAllocs(pkg *Package, n *Node, trunc map[types.Object]bool) []allocSite {
	body := n.Body()
	if body == nil {
		return nil
	}
	var sites []allocSite
	add := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, allocSite{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	qual := types.RelativeTo(pkg.Types)

	// Pre-pass: classify append assignments so the main walk can tell a
	// disciplined self-append from a growing one.
	handledAppend := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isBuiltinCall(pkg, call, "append") || len(call.Args) == 0 {
			return true
		}
		if types.ExprString(as.Lhs[0]) != types.ExprString(call.Args[0]) {
			return true // not a self-append; the main walk flags it
		}
		handledAppend[call] = true
		if obj := leafObj(pkg, as.Lhs[0]); obj != nil && trunc[obj] {
			return true // reuse-disciplined: reset with [:0] elsewhere
		}
		add(call.Pos(), "self-append to %s with no [:0] reset in this package (unbounded growth)",
			types.ExprString(as.Lhs[0]))
		return true
	})

	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			add(x.Pos(), "func literal (closure allocation)")
			return false // the literal's body is its own node
		case *ast.GoStmt:
			add(x.Pos(), "go statement (goroutine allocation)")
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					t := pkg.Info.TypeOf(lit)
					add(x.Pos(), "&%s composite literal escapes to the heap", types.TypeString(t, qual))
					return false
				}
			}
			return true
		case *ast.CompositeLit:
			t := pkg.Info.TypeOf(x)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					add(x.Pos(), "slice literal %s allocates", types.TypeString(t, qual))
				case *types.Map:
					add(x.Pos(), "map literal %s allocates", types.TypeString(t, qual))
				}
			}
			return true
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if t := pkg.Info.TypeOf(x); t != nil && isStringType(t) {
					add(x.Pos(), "string concatenation allocates")
				}
			}
			return true
		case *ast.CallExpr:
			scanCallAllocs(pkg, x, qual, handledAppend, add)
			return true
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites
}

// scanCallAllocs handles the call-shaped allocation constructs: make/new,
// unhandled appends, allocating conversions, and interface boxing of
// arguments at the call boundary.
func scanCallAllocs(pkg *Package, call *ast.CallExpr, qual types.Qualifier,
	handledAppend map[*ast.CallExpr]bool, add func(token.Pos, string, ...any)) {

	fun := ast.Unparen(call.Fun)

	// Conversions.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := pkg.Info.TypeOf(call.Args[0])
		if src == nil {
			return
		}
		switch {
		case types.IsInterface(dst) && !types.IsInterface(src) && !isUntypedNil(pkg, call.Args[0]):
			add(call.Pos(), "conversion to interface %s boxes its operand", types.TypeString(dst, qual))
		case isStringType(dst) && isByteOrRuneSlice(src):
			add(call.Pos(), "%s→string conversion allocates", types.TypeString(src, qual))
		case isByteOrRuneSlice(dst) && isStringType(src):
			add(call.Pos(), "string→%s conversion allocates", types.TypeString(dst, qual))
		case isStringType(dst) && isIntegerType(src):
			add(call.Pos(), "integer→string conversion allocates")
		}
		return
	}

	// Builtins.
	switch {
	case isBuiltinCall(pkg, call, "make"):
		t := pkg.Info.TypeOf(call)
		add(call.Pos(), "make(%s) allocates", types.TypeString(t, qual))
		return
	case isBuiltinCall(pkg, call, "new"):
		t := pkg.Info.TypeOf(call)
		add(call.Pos(), "new allocates %s", types.TypeString(t, qual))
		return
	case isBuiltinCall(pkg, call, "append"):
		if !handledAppend[call] {
			add(call.Pos(), "append outside the x = append(x, …) reuse idiom may grow its backing array")
		}
		return
	}
	if isAnyBuiltin(pkg, call) {
		return
	}

	// Interface boxing of concrete arguments at the call boundary.
	sig, ok := pkg.Info.TypeOf(fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(pkg, arg) {
			continue
		}
		add(arg.Pos(), "argument boxes %s into interface %s", types.TypeString(at, qual), types.TypeString(pt, qual))
	}
}

func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := pkg.Info.Uses[id].(*types.Builtin)
	return isB
}

func isAnyBuiltin(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isB := pkg.Info.Uses[id].(*types.Builtin)
	return isB
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

// isNamedType reports whether t (or what it points to) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// ---------------------------------------------------------------------------
// Fact computation

// nodeLocal is per-node scratch kept during the fixpoint.
type nodeLocal struct {
	// recvCalls lists static callees invoked through a receiver-rooted
	// expression (r.helper() from a method with receiver r); a mutating
	// callee makes the caller mutating.
	recvCalls []FuncID
}

// ComputeFacts runs the direct scans and the transitive fixpoint over the
// graph. allowed filters allocation sites that carry an audited
// //lint:allow hotalloc, so a fully-suppressed function exports a clean
// fact.
func ComputeFacts(g *Graph, pkgs []*Package, allowed func(pkg *Package, pos token.Pos) bool) *FactSet {
	fs := &FactSet{funcs: map[FuncID]FuncFact{}}
	local := map[FuncID]*nodeLocal{}
	trunc := map[*Package]map[types.Object]bool{}
	for _, pkg := range pkgs {
		trunc[pkg] = collectTruncations(pkg)
	}

	// Direct pass.
	for _, n := range g.Nodes() {
		var f FuncFact
		for _, site := range scanAllocs(n.Pkg, n, trunc[n.Pkg]) {
			if allowed != nil && allowed(n.Pkg, site.pos) {
				continue
			}
			f.Allocates = true
			f.AllocWhat = site.what
			break
		}
		f.Mutates = mutatesReceiverDirect(n)
		f.Locks = locksDirect(n)
		loc := &nodeLocal{}
		if recv := receiverObj(n); recv != nil {
			loc.recvCalls = receiverRootedCallees(n, recv)
		}
		local[n.ID] = loc
		fs.funcs[n.ID] = f
	}

	// Fixpoint: propagate Allocates and Locks over call edges, Mutates
	// over receiver-rooted call edges. The graph is small (one module);
	// quadratic worst case is fine and the iteration order is the sorted
	// node order, so the result is deterministic.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			f := fs.funcs[n.ID]
			for _, c := range n.Calls {
				if f.Allocates && f.Locks {
					break
				}
				// An audited //lint:allow hotalloc on the call line keeps
				// the callee's Allocates out of this function's fact, so
				// hotalloc's frontier check, which judges a call by its
				// callee's fact, does not re-report an allocation already
				// suppressed at the site. Locks propagation is
				// unaffected: the filter is hotalloc's.
				callAllowed := allowed != nil && allowed(n.Pkg, c.Pos)
				for _, t := range c.Targets {
					tf := fs.funcs[t.ID]
					if !f.Allocates && tf.Allocates && !callAllowed {
						f.Allocates = true
						f.AllocWhat = "calls " + string(shortID(t.ID))
					}
					if !f.Locks && tf.Locks {
						f.Locks = true
					}
				}
				for _, ext := range c.Externals {
					ef := externalFact(ext)
					if !f.Allocates && ef.Allocates && !callAllowed {
						f.Allocates = true
						f.AllocWhat = "calls " + string(shortID(ext.ID))
					}
					if !f.Locks && ef.Locks {
						f.Locks = true
					}
				}
			}
			if !f.Mutates {
				for _, id := range local[n.ID].recvCalls {
					if fs.funcs[id].Mutates {
						f.Mutates = true
						break
					}
				}
			}
			if f != fs.funcs[n.ID] {
				fs.funcs[n.ID] = f
				changed = true
			}
		}
	}
	return fs
}

// receiverObj returns the declared receiver variable of a method node.
func receiverObj(n *Node) types.Object {
	if n.Decl == nil || n.Decl.Recv == nil || len(n.Decl.Recv.List) == 0 {
		return nil
	}
	names := n.Decl.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return n.Pkg.Info.Defs[names[0]]
}

// mutatesReceiverDirect reports whether the node writes through its
// receiver anywhere in its body, including inside closures (which share
// the receiver variable).
func mutatesReceiverDirect(n *Node) bool {
	recv := receiverObj(n)
	if recv == nil || n.Decl == nil || n.Decl.Body == nil {
		return false
	}
	pkg := n.Pkg
	mutates := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if mutates {
			return false
		}
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if isReceiverRooted(pkg, lhs, recv) {
					mutates = true
				}
			}
		case *ast.IncDecStmt:
			if isReceiverRooted(pkg, x.X, recv) {
				mutates = true
			}
		case *ast.CallExpr:
			// delete(r.m, k) mutates the receiver's map.
			if isBuiltinCall(pkg, x, "delete") && len(x.Args) > 0 && isReceiverRooted(pkg, x.Args[0], recv) {
				mutates = true
			}
		}
		return true
	})
	return mutates
}

// isReceiverRooted reports whether e's leftmost identifier is recv, with
// at least one selection step (writing to a shadowing local named like
// the receiver does not count; writing `*r = v` does).
func isReceiverRooted(pkg *Package, e ast.Expr, recv types.Object) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		// A bare `r = v` rebinds the local copy, it does not mutate.
		_ = id
		return false
	}
	if st, ok := e.(*ast.StarExpr); ok {
		if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
			return pkg.Info.Uses[id] == recv
		}
	}
	return rootObj(pkg, e) == recv
}

// receiverRootedCallees lists static callees invoked through recv.
func receiverRootedCallees(n *Node, recv types.Object) []FuncID {
	if n.Decl == nil || n.Decl.Body == nil {
		return nil
	}
	pkg := n.Pkg
	var out []FuncID
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		if rootObj(pkg, sel.X) == recv {
			out = append(out, funcID(fn))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// locksDirect reports whether the node's body acquires a sync lock.
func locksDirect(n *Node) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	pkg := n.Pkg
	locks := false
	ast.Inspect(body, func(x ast.Node) bool {
		if locks {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		t := pkg.Info.TypeOf(sel.X)
		if t != nil && (isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")) {
			locks = true
		}
		return true
	})
	return locks
}
