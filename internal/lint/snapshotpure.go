package lint

// snapshotpure enforces the PR 3 metrics contract: Snapshot() metrics.Set
// is a pure read. Every number in EXPERIMENTS.md is derived by merging
// component snapshots, and the CI regression gate compares their
// serialized bytes across runs — a Snapshot that increments a counter,
// resets a child, or lazily (re)builds state would make the act of
// observing the simulation change it, so back-to-back snapshots diverge.
//
// The check is interprocedural: a Snapshot body may not write through its
// receiver (closures included — they share the receiver variable), and
// may not call, through the receiver, any function whose
// MutatesReceiver fact is true. Interface-dispatched calls (e.g.
// c.walker.(metrics.Source).Snapshot()) are resolved by CHA and every
// candidate implementation is checked.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapshotPure flags Snapshot() metrics.Set implementations with side
// effects on their receiver.
var SnapshotPure = &Analyzer{
	Name: "snapshotpure",
	Doc: "snapshotpure requires every Snapshot() metrics.Set implementation " +
		"to be a pure read of its receiver: no receiver-field writes " +
		"(including through closures), no delete on receiver maps, and no " +
		"receiver-rooted calls to functions whose MutatesReceiver fact is " +
		"true — interface calls are resolved through the call graph and " +
		"every CHA candidate is checked. Observing the simulation must " +
		"never change it: the CI gate byte-compares serialized snapshots " +
		"across runs.",
	RunProgram: runSnapshotPure,
}

func runSnapshotPure(pass *ProgramPass) {
	prog := pass.Prog
	for _, n := range prog.Graph.Nodes() {
		if n.Decl == nil || n.Fn == nil || n.Fn.Name() != "Snapshot" || n.InTestFile() {
			continue
		}
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			continue
		}
		if !isNamed(sig.Results().At(0).Type(), ModulePath+"/internal/metrics", "Set") {
			continue
		}
		checkSnapshotBody(pass, n)
	}
}

func checkSnapshotBody(pass *ProgramPass, n *Node) {
	recv := receiverObj(n)
	if recv == nil || n.Decl.Body == nil {
		return
	}
	pkg := n.Pkg
	prog := pass.Prog

	// Index the resolved call sites of this method and its closures by
	// position, so interface calls can be judged through CHA targets.
	callAt := map[token.Pos]Call{}
	indexCalls := func(node *Node) {
		for _, c := range node.Calls {
			callAt[c.Pos] = c
		}
	}
	indexCalls(n)
	for _, child := range prog.Graph.Nodes() {
		if len(child.ID) > len(n.ID) && child.ID[:len(n.ID)+1] == n.ID+"$" {
			indexCalls(child)
		}
	}

	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if isReceiverRooted(pkg, lhs, recv) {
					pass.Reportf(pkg, lhs.Pos(), "Snapshot must be read-only: writes %s", types.ExprString(lhs))
				}
			}
		case *ast.IncDecStmt:
			if isReceiverRooted(pkg, x.X, recv) {
				pass.Reportf(pkg, x.Pos(), "Snapshot must be read-only: writes %s", types.ExprString(x.X))
			}
		case *ast.CallExpr:
			if isBuiltinCall(pkg, x, "delete") && len(x.Args) > 0 && isReceiverRooted(pkg, x.Args[0], recv) {
				pass.Reportf(pkg, x.Pos(), "Snapshot must be read-only: deletes from %s", types.ExprString(x.Args[0]))
				return true
			}
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || rootObj(pkg, sel.X) != recv {
				return true
			}
			c, ok := callAt[x.Pos()]
			if !ok {
				return true
			}
			for _, t := range c.Targets {
				if f, ok := prog.Facts.Lookup(t.ID); ok && f.Mutates {
					pass.Reportf(pkg, x.Pos(), "Snapshot must be read-only: calls %s, which mutates its receiver", shortID(t.ID))
				}
			}
			for _, ext := range c.Externals {
				if f := externalFact(ext); f.Mutates {
					pass.Reportf(pkg, x.Pos(), "Snapshot must be read-only: calls %s, which mutates its receiver", shortID(ext.ID))
				}
			}
		}
		return true
	})
}
