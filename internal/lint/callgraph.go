package lint

// callgraph.go builds a whole-program, CHA-style (class-hierarchy
// analysis) call graph over the packages the loader type-checked. It is
// the foundation the interprocedural analyzers (hotalloc, snapshotpure)
// stand on:
//
//   - static calls resolve to the callee's declaration;
//   - interface calls (mmu.Walker.Walk, metrics.Source.Snapshot, …)
//     resolve to every concrete method in the program whose receiver type
//     implements the interface — the classic CHA over-approximation;
//   - calls through function-typed values resolve to every function or
//     closure of identical signature whose value is taken somewhere in
//     the program (a func-pointer CHA);
//   - closure creation is an edge too, so code inside a func literal is
//     reachable from wherever the literal is built.
//
// Determinism is a hard requirement (CI and the golden tests compare the
// output line for line): nodes are ordered by their canonical FuncID, CHA
// target lists are sorted, and breadth-first reachability visits
// neighbors in sorted order, so diagnostics and walk paths never depend
// on map iteration.
//
// Calls whose target has no body in the analyzed package set — the
// standard library, and other module packages when the golden-test
// harness loads one package alone — become ExtTarget frontier entries.
// Analyzers judge those through the facts layer (facts.go) instead of
// traversing them.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncID is the canonical, position-independent identity of a function:
// types.Func.FullName of the generic origin (e.g.
// "(*lvm/internal/mmu.LWC).Lookup", "lvm/internal/core.Build"), with
// "$N" suffixes for closures in source order within their parent.
type FuncID string

// CallKind classifies how a call site was resolved.
type CallKind int

const (
	// CallStatic is a direct call to a known function or concrete method.
	CallStatic CallKind = iota
	// CallInterface is a dynamic dispatch resolved by CHA over the
	// program's method sets.
	CallInterface
	// CallFuncValue is an indirect call through a function-typed value,
	// resolved by signature against address-taken functions.
	CallFuncValue
	// CallClosure is not a call at all but a closure creation; the edge
	// makes the literal's body reachable from its builder.
	CallClosure
)

// ExtTarget identifies a call target with no body in the analyzed set.
type ExtTarget struct {
	ID      FuncID
	PkgPath string
	Name    string
}

// Call is one call site inside a node's body.
type Call struct {
	Pos  token.Pos
	Kind CallKind
	// Targets are the in-graph candidates, sorted by ID.
	Targets []*Node
	// Externals are candidates without bodies (stdlib, or module
	// packages outside the analyzed set), sorted by ID. Analyzers consult
	// facts for these.
	Externals []ExtTarget
}

// Node is one function in the graph.
type Node struct {
	ID  FuncID
	Pkg *Package
	// Fn is the type-checker object; nil for closures.
	Fn *types.Func
	// Exactly one of Decl/Lit is set.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Calls lists the body's call sites in source order.
	Calls []Call
}

// Body returns the function body (nil for bodyless declarations).
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// Recv returns the receiver type for methods, nil otherwise.
func (n *Node) Recv() types.Type {
	if n.Fn == nil {
		return nil
	}
	if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return sig.Recv().Type()
	}
	return nil
}

// InTestFile reports whether the node is declared in a _test.go file.
func (n *Node) InTestFile() bool {
	var pos token.Pos
	if n.Decl != nil {
		pos = n.Decl.Pos()
	} else if n.Lit != nil {
		pos = n.Lit.Pos()
	} else {
		return false
	}
	return strings.HasSuffix(n.Pkg.Fset.Position(pos).Filename, "_test.go")
}

// Graph is the whole-program call graph.
type Graph struct {
	nodes map[FuncID]*Node
	// order lists node IDs sorted lexically — the only sanctioned
	// iteration order.
	order []FuncID
	// typesPkgs is the transitive import closure of the analyzed
	// packages, sorted by path; CHA scans its named types.
	typesPkgs []*types.Package
}

// Nodes returns every node in deterministic (sorted-ID) order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.order))
	for i, id := range g.order {
		out[i] = g.nodes[id]
	}
	return out
}

// Lookup returns the node with the given ID, or nil.
func (g *Graph) Lookup(id FuncID) *Node { return g.nodes[id] }

// funcID canonicalizes a types.Func (through its generic origin, so every
// instantiation of lruCache[K].lookup shares one node).
func funcID(fn *types.Func) FuncID {
	return FuncID(fn.Origin().FullName())
}

// LookupInterface finds a named interface type anywhere in the analyzed
// packages or their import closure ("lvm/internal/mmu", "Walker").
func (g *Graph) LookupInterface(pkgPath, name string) *types.Interface {
	for _, p := range g.typesPkgs {
		if p.Path() != pkgPath {
			continue
		}
		obj := p.Scope().Lookup(name)
		if obj == nil {
			continue
		}
		if iface, ok := types.Unalias(obj.Type()).Underlying().(*types.Interface); ok {
			return iface
		}
	}
	return nil
}

// graphBuilder accumulates state across the two build passes.
type graphBuilder struct {
	g *Graph
	// addressTaken maps a canonical signature string to the functions and
	// closures whose value escapes into a variable, field, or argument —
	// the candidate set for func-value calls.
	addressTaken map[string][]FuncID
	// chaTypes are the named, non-interface, non-generic types whose
	// method sets CHA consults, sorted by type string.
	chaTypes []types.Type
}

// BuildGraph constructs the call graph over the given packages: usually
// the whole module, or a single golden-test package, in which case
// resolution degrades gracefully to ExtTargets for anything without a
// body.
func BuildGraph(pkgs []*Package) *Graph {
	b := &graphBuilder{
		g:            &Graph{nodes: map[FuncID]*Node{}},
		addressTaken: map[string][]FuncID{},
	}
	b.collectTypePackages(pkgs)
	b.collectCHATypes()

	// Pass 1: one node per declared function, plus closure nodes in
	// source order, and the address-taken candidate sets.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{ID: funcID(fn), Pkg: pkg, Fn: fn, Decl: fd}
				b.g.nodes[n.ID] = n
				b.indexClosures(pkg, n)
			}
		}
	}
	for _, pkg := range pkgs {
		b.collectAddressTaken(pkg)
	}

	// Pass 2: resolve every call site.
	for _, id := range sortedIDs(b.g.nodes) {
		n := b.g.nodes[id]
		if n.Lit == nil { // closures are walked from their parent's pass
			b.resolveCalls(n)
		}
	}

	b.g.order = sortedIDs(b.g.nodes)
	return b.g
}

func sortedIDs(m map[FuncID]*Node) []FuncID {
	ids := make([]FuncID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// collectTypePackages gathers the transitive import closure of the
// analyzed packages (sorted by path) for CHA's type scan.
func (b *graphBuilder) collectTypePackages(pkgs []*Package) {
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		b.g.typesPkgs = append(b.g.typesPkgs, p)
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	sort.Slice(b.g.typesPkgs, func(i, j int) bool {
		return b.g.typesPkgs[i].Path() < b.g.typesPkgs[j].Path()
	})
}

// collectCHATypes indexes every named, non-interface, non-generic type in
// the program whose method set could satisfy an interface.
func (b *graphBuilder) collectCHATypes() {
	for _, p := range b.g.typesPkgs {
		scope := p.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			b.chaTypes = append(b.chaTypes, named)
		}
	}
}

// indexClosures creates one node per func literal inside decl, numbered
// in source order ("parent$1", "parent$2", …, nesting included).
func (b *graphBuilder) indexClosures(pkg *Package, parent *Node) {
	if parent.Decl == nil || parent.Decl.Body == nil {
		return
	}
	i := 0
	ast.Inspect(parent.Decl.Body, func(x ast.Node) bool {
		lit, ok := x.(*ast.FuncLit)
		if !ok {
			return true
		}
		i++
		id := FuncID(fmt.Sprintf("%s$%d", parent.ID, i))
		b.g.nodes[id] = &Node{ID: id, Pkg: pkg, Lit: lit}
		return true
	})
}

// collectAddressTaken records every function whose value is used outside
// a call position, keyed by canonical signature string.
func (b *graphBuilder) collectAddressTaken(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if ok {
				// The callee expression itself is not "address taken";
				// walk only the arguments.
				for _, arg := range call.Args {
					b.markTaken(pkg, arg)
				}
				return false // args walked manually, incl. nested calls
			}
			switch x := x.(type) {
			case *ast.AssignStmt:
				for _, rhs := range x.Rhs {
					b.markTaken(pkg, rhs)
				}
			case *ast.ValueSpec:
				for _, v := range x.Values {
					b.markTaken(pkg, v)
				}
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					b.markTaken(pkg, r)
				}
			case *ast.CompositeLit:
				for _, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						b.markTaken(pkg, kv.Value)
					} else {
						b.markTaken(pkg, e)
					}
				}
			}
			return true
		})
	}
	for sig := range b.addressTaken {
		ids := b.addressTaken[sig]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		b.addressTaken[sig] = ids
	}
}

// markTaken records e if it denotes a function value (ident, method
// value, or func literal).
func (b *graphBuilder) markTaken(pkg *Package, e ast.Expr) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			b.take(pkg.Info.TypeOf(e), funcID(fn))
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			b.take(pkg.Info.TypeOf(e), funcID(fn))
		}
	case *ast.FuncLit:
		// The literal's node ID is assigned by indexClosures; find it by
		// position when resolving (cheaper: record by signature with a
		// position-keyed ID at resolve time). Literals are matched in
		// resolveCalls via litIDs, so here we only note the signature —
		// handled below by scanning all nodes once.
	case *ast.CallExpr, *ast.CompositeLit:
		// Nested expressions were already visited by the Inspect walk.
	}
}

func (b *graphBuilder) take(t types.Type, id FuncID) {
	if t == nil {
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	key := sigKey(sig)
	for _, have := range b.addressTaken[key] {
		if have == id {
			return
		}
	}
	b.addressTaken[key] = append(b.addressTaken[key], id)
}

// sigKey canonicalizes a signature to parameter/result types only (no
// receiver, no names), so a method value and a plain func of the same
// shape share a key.
func sigKey(sig *types.Signature) string {
	nosig := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(nosig, nil)
}

// resolveCalls fills in n.Calls (and, recursively via closure indexing,
// the calls of every literal inside n).
func (b *graphBuilder) resolveCalls(n *Node) {
	body := n.Body()
	if body == nil {
		return
	}
	pkg := n.Pkg
	// litID maps each func literal in this decl to its node.
	litID := map[*ast.FuncLit]FuncID{}
	i := 0
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			i++
			litID[lit] = FuncID(fmt.Sprintf("%s$%d", n.ID, i))
		}
		return true
	})

	// walk appends to owner's call list; entering a literal switches
	// ownership to the literal's node.
	var walk func(x ast.Node, owner *Node)
	walk = func(x ast.Node, owner *Node) {
		ast.Inspect(x, func(y ast.Node) bool {
			switch y := y.(type) {
			case *ast.FuncLit:
				child := b.g.nodes[litID[y]]
				if child == nil {
					return false
				}
				owner.Calls = append(owner.Calls, Call{
					Pos: y.Pos(), Kind: CallClosure, Targets: []*Node{child},
				})
				walk(y.Body, child)
				return false
			case *ast.CallExpr:
				b.resolveOneCall(pkg, owner, y)
				// Arguments (and the callee expression) may contain
				// further calls/literals; keep walking them, but the
				// FuncLit case above handles ownership switches.
				return true
			}
			return true
		})
	}
	walk(body, n)

	// Also register literal signatures as address-taken: a created
	// closure is by definition a value.
	for lit, id := range litID {
		if sig, ok := pkg.Info.TypeOf(lit).(*types.Signature); ok {
			b.take(sig, id)
		}
	}
}

// resolveOneCall appends one resolved call site to owner.Calls.
func (b *graphBuilder) resolveOneCall(pkg *Package, owner *Node, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Type conversions and builtins are not calls.
	if tv, ok := pkg.Info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := pkg.Info.Uses[id].(*types.Builtin); isB {
			return
		}
	}

	// Static: the callee expression names a *types.Func.
	var fn *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ = pkg.Info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			// Method call: interface receivers dispatch dynamically.
			mfn, _ := sel.Obj().(*types.Func)
			if mfn != nil && types.IsInterface(sel.Recv()) {
				b.addInterfaceCall(owner, call, sel.Recv(), mfn)
				return
			}
			fn = mfn
		} else {
			// Package-qualified function (pkg.F) has no Selection.
			fn, _ = pkg.Info.Uses[f.Sel].(*types.Func)
		}
	case *ast.IndexExpr: // generic instantiation F[T](…)
		if id, ok := f.X.(*ast.Ident); ok {
			fn, _ = pkg.Info.Uses[id].(*types.Func)
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: the closure edge already exists.
		return
	}
	if fn != nil {
		owner.Calls = append(owner.Calls, b.callTo(call.Pos(), CallStatic, fn))
		return
	}

	// Indirect call through a function-typed value: signature CHA.
	if sig, ok := pkg.Info.TypeOf(fun).(*types.Signature); ok {
		c := Call{Pos: call.Pos(), Kind: CallFuncValue}
		for _, id := range b.addressTaken[sigKey(sig)] {
			if t := b.g.nodes[id]; t != nil {
				c.Targets = append(c.Targets, t)
			}
		}
		owner.Calls = append(owner.Calls, c)
	}
}

// callTo builds a single-target call, in-graph or external.
func (b *graphBuilder) callTo(pos token.Pos, kind CallKind, fn *types.Func) Call {
	id := funcID(fn)
	if t := b.g.nodes[id]; t != nil {
		return Call{Pos: pos, Kind: kind, Targets: []*Node{t}}
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	return Call{Pos: pos, Kind: kind, Externals: []ExtTarget{{ID: id, PkgPath: pkgPath, Name: fn.Name()}}}
}

// addInterfaceCall resolves iface.method by CHA over every named type in
// the program.
func (b *graphBuilder) addInterfaceCall(owner *Node, call *ast.CallExpr, recv types.Type, method *types.Func) {
	iface, ok := types.Unalias(recv).Underlying().(*types.Interface)
	if !ok {
		owner.Calls = append(owner.Calls, b.callTo(call.Pos(), CallInterface, method))
		return
	}
	c := Call{Pos: call.Pos(), Kind: CallInterface}
	seen := map[FuncID]bool{}
	for _, t := range b.chaTypes {
		pt := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(pt, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, method.Pkg(), method.Name())
		impl, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		id := funcID(impl)
		if seen[id] {
			continue
		}
		seen[id] = true
		if tgt := b.g.nodes[id]; tgt != nil {
			c.Targets = append(c.Targets, tgt)
		} else {
			pkgPath := ""
			if impl.Pkg() != nil {
				pkgPath = impl.Pkg().Path()
			}
			c.Externals = append(c.Externals, ExtTarget{ID: id, PkgPath: pkgPath, Name: impl.Name()})
		}
	}
	sort.Slice(c.Targets, func(i, j int) bool { return c.Targets[i].ID < c.Targets[j].ID })
	sort.Slice(c.Externals, func(i, j int) bool { return c.Externals[i].ID < c.Externals[j].ID })
	owner.Calls = append(owner.Calls, c)
}

// Reach is the result of a reachability query: which nodes a set of roots
// can reach, with enough bookkeeping to reconstruct one shortest path per
// node for diagnostics.
type Reach struct {
	order []FuncID
	// parent maps each reached node to the node it was first reached from
	// (a root maps to itself).
	parent map[FuncID]FuncID
}

// Order returns the reached IDs in BFS-then-ID deterministic order.
func (r *Reach) Order() []FuncID { return r.order }

// Path renders "root → … → id" for diagnostics (at most 6 hops shown).
func (r *Reach) Path(id FuncID) string {
	var hops []string
	for cur := id; ; {
		hops = append(hops, shortID(cur))
		p, ok := r.parent[cur]
		if !ok || p == cur {
			break
		}
		cur = p
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	if len(hops) > 6 {
		hops = append(append([]string{}, hops[:2]...), append([]string{"…"}, hops[len(hops)-3:]...)...)
	}
	return strings.Join(hops, " → ")
}

// shortID strips the module path prefix from a FuncID for readable
// diagnostics: "(*lvm/internal/mmu.LWC).Lookup" → "(*mmu.LWC).Lookup".
func shortID(id FuncID) string {
	s := string(id)
	s = strings.ReplaceAll(s, ModulePath+"/internal/", "")
	s = strings.ReplaceAll(s, ModulePath+"/", "")
	return s
}

// Reach runs a breadth-first reachability query from roots. follow gates
// traversal: edges into nodes for which follow returns false are crossed
// in the result (the node is marked reached, so analyzers can frontier-
// check it) but not traversed further. A nil follow traverses everything.
func (g *Graph) Reach(roots []*Node, follow func(*Node) bool) *Reach {
	r := &Reach{parent: map[FuncID]FuncID{}}
	sorted := append([]*Node{}, roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	var queue []FuncID
	for _, n := range sorted {
		if _, ok := r.parent[n.ID]; ok {
			continue
		}
		r.parent[n.ID] = n.ID
		queue = append(queue, n.ID)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		r.order = append(r.order, id)
		n := g.nodes[id]
		if n == nil || (follow != nil && !follow(n)) {
			continue // frontier: reached but not traversed
		}
		for _, c := range n.Calls {
			for _, t := range c.Targets {
				if _, ok := r.parent[t.ID]; ok {
					continue
				}
				r.parent[t.ID] = id
				queue = append(queue, t.ID)
			}
		}
	}
	return r
}
