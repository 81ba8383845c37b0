package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ConcurrencyPass applies two hygiene rules to `go` statements, aimed at
// the parallel miner and anything future PRs stack on top of it:
//
//  1. a goroutine literal must not capture an enclosing loop variable —
//     even with Go ≥1.22 per-iteration semantics, passing the variable as
//     a parameter keeps the data flow explicit and the code safe to
//     backport or copy into range-free loops;
//  2. a goroutine that touches a shared mining *Result (or container of
//     Results) declared outside the goroutine must do so in a function
//     that visibly synchronizes — some use of the sync package
//     (WaitGroup, Mutex, ...) or a channel operation must be in scope —
//     otherwise the write is a data race waiting for -race to find it.
func ConcurrencyPass() *Pass {
	return &Pass{
		Name: "concurrency",
		Doc:  "flag goroutines capturing loop variables or sharing Result state without visible synchronization",
		Run:  runConcurrency,
	}
}

func runConcurrency(ctx *Context) {
	info := ctx.Pkg.Info
	for _, f := range ctx.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			gost, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gost.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			loopVars := enclosingLoopVars(info, stack)
			body := enclosingFuncBody(stack)
			synced := body != nil && usesSynchronization(info, body)
			modPath := ctx.Loader.ModPath
			sharedReported := make(map[*types.Var]bool)
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj, ok := info.Uses[id].(*types.Var)
				if !ok {
					return true
				}
				if loopVars[obj] {
					ctx.Report(id.Pos(), "goroutine captures loop variable %s; pass it as an argument to the goroutine's function instead", obj.Name())
					loopVars[obj] = false // one finding per variable per goroutine
				}
				if !synced && !sharedReported[obj] && obj.Pos() < lit.Pos() && touchesResult(modPath, obj.Type()) {
					sharedReported[obj] = true
					ctx.Report(id.Pos(), "goroutine shares %s (%s) without visible synchronization; guard it with a sync.Mutex/WaitGroup or a channel", obj.Name(), obj.Type())
				}
				return true
			})
			return true
		})
	}
}

// enclosingLoopVars collects the variables declared by the for/range
// statements surrounding the current node.
func enclosingLoopVars(info *types.Info, stack []ast.Node) map[*types.Var]bool {
	vars := make(map[*types.Var]bool)
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok {
				vars[v] = true
			}
		}
	}
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.RangeStmt:
			add(n.Key)
			add(n.Value)
		case *ast.ForStmt:
			if assign, ok := n.Init.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					add(lhs)
				}
			}
		}
	}
	return vars
}

// usesSynchronization reports whether the function body references the
// sync or sync/atomic packages, or performs a channel send/receive —
// the visible evidence that shared state is coordinated.
func usesSynchronization(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil {
				if p := obj.Pkg().Path(); p == "sync" || p == "sync/atomic" {
					found = true
				}
			}
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		}
		return !found
	})
	return found
}

// touchesResult reports whether t is, points to, or contains mining
// Result values of the module under analysis — the shared accumulator the
// parallel miner must merge under synchronization.
func touchesResult(modPath string, t types.Type) bool {
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		return obj.Name() == "Result" && obj.Pkg() != nil &&
			(obj.Pkg().Path() == modPath || strings.HasPrefix(obj.Pkg().Path(), modPath+"/"))
	case *types.Pointer:
		return touchesResult(modPath, t.Elem())
	case *types.Slice:
		return touchesResult(modPath, t.Elem())
	case *types.Array:
		return touchesResult(modPath, t.Elem())
	case *types.Map:
		return touchesResult(modPath, t.Elem())
	}
	return false
}
