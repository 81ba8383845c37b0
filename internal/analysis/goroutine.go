package analysis

import (
	"go/ast"
	"go/types"
)

// GoroutineLifecyclePass guards goroutine and lock hygiene module-wide,
// ahead of the sharded scatter-gather layer the ROADMAP stacks on the
// serving code:
//
//  1. every `go` statement must show a join or cancel path the reader can
//     see from the launch site: the goroutine pairs with a
//     sync.WaitGroup (Done/Add referenced inside it, or a *WaitGroup
//     passed to it), performs a channel operation (send, receive, close,
//     select) that a collector can rendezvous with, runs under an
//     errgroup.Group, or receives a context to watch. Process-lifetime
//     goroutines launched from a cmd/ main are allowed (the server
//     allowlist); anything else is a leak waiting for a load test, and
//     must either gain a join path or justify itself with
//     //rpvet:allow goroutine-lifecycle;
//  2. sync locks must not be copied: methods may not take a receiver by
//     value if the receiver type contains a Mutex/RWMutex/WaitGroup/...,
//     and assignments, range clauses and call arguments may not copy a
//     lock-bearing value (go vet's copylocks, reimplemented here so the
//     cached driver sees it and fixtures can pin the message format).
func GoroutineLifecyclePass() *Pass {
	return &Pass{
		Name: "goroutine-lifecycle",
		Doc:  "require a visible join/cancel path for every goroutine; forbid copying sync locks",
		Run:  runGoroutineLifecycle,
	}
}

func runGoroutineLifecycle(ctx *Context) {
	info := ctx.Pkg.Info
	isMainPkg := ctx.Pkg.Types.Name() == "main"
	for _, f := range ctx.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoStmt(ctx, info, n, stack, isMainPkg)
			case *ast.FuncDecl:
				checkValueReceiver(ctx, info, n)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					checkLockCopy(ctx, info, rhs, "assignment")
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkLockCopy(ctx, info, v, "variable declaration")
				}
			case *ast.RangeStmt:
				checkRangeLockCopy(ctx, info, n)
			case *ast.CallExpr:
				checkCallLockCopy(ctx, info, n)
			}
			return true
		})
	}
}

// checkGoStmt looks for visible join/cancel evidence on one `go` statement.
func checkGoStmt(ctx *Context, info *types.Info, g *ast.GoStmt, stack []ast.Node, isMainPkg bool) {
	// Server allowlist: a goroutine launched straight from main() lives
	// for the process, joined by exit.
	if isMainPkg {
		for _, anc := range stack {
			if fd, ok := anc.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "main" {
				return
			}
		}
	}
	// Arguments handed to the goroutine can carry the lifecycle: a
	// *sync.WaitGroup, a channel, or a context to watch.
	for _, arg := range g.Call.Args {
		if tv, ok := info.Types[arg]; ok && tv.Type != nil && lifecycleCarrier(tv.Type) {
			return
		}
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if bodyShowsLifecycle(info, lit.Body) {
			return
		}
	} else if tv, ok := info.Types[g.Call.Fun]; ok && tv.Type != nil {
		// A named callee whose signature accepts a lifecycle carrier
		// (checked above via the arguments) was already cleared; a method
		// on an errgroup-style receiver also counts.
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok && sig.Recv() != nil && lifecycleCarrier(sig.Recv().Type()) {
			return
		}
	}
	ctx.Report(g.Pos(), "goroutine has no visible join or cancel path; pair it with a WaitGroup, channel or context (or justify with //rpvet:allow goroutine-lifecycle)")
}

// lifecycleCarrier reports whether a value of type t can carry a
// goroutine's lifecycle: a (pointer to) sync.WaitGroup, a channel, or a
// context.Context.
func lifecycleCarrier(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if isContextType(t) {
		return true
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
			return true
		}
	}
	return false
}

// bodyShowsLifecycle reports whether a goroutine body contains join/cancel
// evidence: a channel operation, a select, a close, a WaitGroup method
// call, or a reference to a context.Context value.
func bodyShowsLifecycle(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
		case *ast.SelectorExpr:
			fn, ok := info.Uses[n.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if named := namedOf(sig.Recv().Type()); named != nil {
				obj := named.Obj()
				if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
					found = true
				}
				// errgroup.Group.Go / .Wait, if the module ever vendors it.
				if obj.Name() == "Group" && obj.Pkg() != nil && pathBase(obj.Pkg().Path()) == "errgroup" {
					found = true
				}
			}
		case *ast.Ident:
			if obj, ok := info.Uses[n].(*types.Var); ok && isContextType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// lockTypes are the sync types that must never be copied after first use.
var lockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true,
	"Cond": true, "Pool": true, "Map": true,
}

// containsLock reports whether a value of type t holds a sync lock by
// value (directly, in a struct field, or in an array element).
func containsLock(t types.Type) bool {
	return containsLockRec(t, make(map[types.Type]bool))
}

func containsLockRec(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypes[obj.Name()] {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockRec(u.Elem(), seen)
	}
	return false
}

// checkValueReceiver flags methods whose by-value receiver carries a lock.
func checkValueReceiver(ctx *Context, info *types.Info, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return
	}
	field := fd.Recv.List[0]
	tv, ok := info.Types[field.Type]
	if !ok || tv.Type == nil {
		return
	}
	if _, isPtr := tv.Type.(*types.Pointer); isPtr {
		return
	}
	if containsLock(tv.Type) {
		ctx.Report(field.Pos(), "method %s passes its receiver %s by value, copying its lock; use a pointer receiver", fd.Name.Name, tv.Type)
	}
}

// copiesLockValue reports whether evaluating expr copies an existing
// lock-bearing value: the expression must denote storage (identifier,
// field, dereference, index) of a lock-containing non-pointer type.
// Composite literals and call results are fresh values, not copies.
func copiesLockValue(info *types.Info, expr ast.Expr) (types.Type, bool) {
	switch ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return nil, false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return nil, false
	}
	if _, isPtr := tv.Type.(*types.Pointer); isPtr {
		return nil, false
	}
	if !containsLock(tv.Type) {
		return nil, false
	}
	return tv.Type, true
}

func checkLockCopy(ctx *Context, info *types.Info, rhs ast.Expr, what string) {
	if t, bad := copiesLockValue(info, rhs); bad {
		ctx.Report(rhs.Pos(), "%s copies %s, which contains a sync lock; keep a pointer instead", what, t)
	}
}

// checkRangeLockCopy flags `for _, v := range xs` where v copies a
// lock-bearing element.
func checkRangeLockCopy(ctx *Context, info *types.Info, rng *ast.RangeStmt) {
	id, ok := rng.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	v, ok := info.Defs[id].(*types.Var)
	if !ok {
		return
	}
	if _, isPtr := v.Type().(*types.Pointer); isPtr {
		return
	}
	if containsLock(v.Type()) {
		ctx.Report(id.Pos(), "range value %s copies %s, which contains a sync lock; range over indices or pointers instead", id.Name, v.Type())
	}
}

// checkCallLockCopy flags call arguments that pass a lock-bearing value
// by value. Type conversions are not calls and stay silent.
func checkCallLockCopy(ctx *Context, info *types.Info, call *ast.CallExpr) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	for _, arg := range call.Args {
		if t, bad := copiesLockValue(info, arg); bad {
			ctx.Report(arg.Pos(), "call passes %s by value, copying its lock; pass a pointer instead", t)
		}
	}
}
