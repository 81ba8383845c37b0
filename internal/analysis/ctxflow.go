package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxflowPass guards the context plumbing PR 3 threaded through the miner
// and the serving layer: cancellation must flow from the edge (cmd/ mains,
// HTTP handlers) down to the subtree tasks without being silently replaced
// by a fresh root context. Three rules, scoped to internal/core,
// internal/serve and cmd/:
//
//  1. inside a function that has a context.Context parameter, calling
//     context.Background() or context.TODO() discards the caller's
//     cancellation — thread the parameter instead (the pass attaches a
//     suggested fix doing exactly that);
//  2. in internal/core and internal/serve — the layers below the edge —
//     context.Background()/TODO() must not appear at all: roots are minted
//     at the edge. Compatibility wrappers (rp.Mine calling rp.MineContext)
//     justify themselves with //rpvet:allow ctxflow and a written reason;
//  3. inside a function that has a context.Context parameter, calling a
//     sibling X when a context-aware XContext exists in the same scope
//     drops cancellation one call down — call XContext(ctx, ...) (also
//     offered as a suggested fix).
//
// cmd/ packages are the edge layer: they may mint root contexts in
// functions that have no context parameter (rule 2 does not apply there),
// but rules 1 and 3 still hold once a ctx is in scope.
func CtxflowPass() *Pass {
	return &Pass{
		Name: "ctxflow",
		Doc:  "require in-scope contexts to be threaded; forbid fresh root contexts below the edge layer",
		Run:  runCtxflow,
	}
}

// ctxflowScope reports whether the pass applies to a package.
func ctxflowScope(rel string) bool {
	return rel == "internal/core" || strings.HasPrefix(rel, "internal/core/") ||
		rel == "internal/serve" || strings.HasPrefix(rel, "internal/serve/") ||
		rel == "cmd" || strings.HasPrefix(rel, "cmd/")
}

// ctxflowBelowEdge reports whether rel is below the edge layer, where
// minting root contexts is forbidden outright (rule 2).
func ctxflowBelowEdge(rel string) bool {
	return rel == "internal/core" || strings.HasPrefix(rel, "internal/core/") ||
		rel == "internal/serve" || strings.HasPrefix(rel, "internal/serve/")
}

func runCtxflow(ctx *Context) {
	if !ctxflowScope(ctx.Pkg.Rel) {
		return
	}
	info := ctx.Pkg.Info
	for _, f := range ctx.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			ctxParam := enclosingCtxParam(info, stack)

			// Rules 1 and 2: a fresh root context.
			if name, isRoot := rootContextCall(info, call); isRoot {
				switch {
				case ctxParam != "":
					var fixes []SuggestedFix
					fixes = append(fixes, SuggestedFix{
						Message: "thread the in-scope context " + ctxParam,
						Edits:   []TextEdit{ctx.Edit(call.Pos(), call.End(), ctxParam)},
					})
					ctx.ReportFix(call.Pos(), fixes, "context.%s discards the in-scope context %s; thread it (or derive from it) instead", name, ctxParam)
				case ctxflowBelowEdge(ctx.Pkg.Rel):
					ctx.Report(call.Pos(), "context.%s mints a fresh root below the edge layer; accept a ctx from the caller (or justify with //rpvet:allow ctxflow)", name)
				}
				return true
			}

			// Rule 3: ignoring a context-aware sibling while a ctx is in
			// scope. Skip when this very call already receives a context
			// argument (then it is the context-aware variant itself).
			if ctxParam == "" || callTakesContext(info, call) {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			if sibling := contextSibling(fn); sibling != nil {
				fixes := []SuggestedFix{threadSiblingFix(ctx, call, fn, ctxParam)}
				ctx.ReportFix(call.Pos(), fixes, "call to %s ignores the in-scope context %s; call %s(%s, ...) so cancellation keeps flowing", fn.Name(), ctxParam, sibling.Name(), ctxParam)
			}
			return true
		})
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// enclosingCtxParam returns the name of the innermost enclosing function's
// context.Context parameter, or "" when there is none (or it is blank).
func enclosingCtxParam(info *types.Info, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		if ft.Params != nil {
			for _, field := range ft.Params.List {
				tv, ok := info.Types[field.Type]
				if !ok || !isContextType(tv.Type) {
					continue
				}
				for _, name := range field.Names {
					if name.Name != "_" {
						return name.Name
					}
				}
			}
		}
		return "" // innermost function wins; do not look further out
	}
	return ""
}

// rootContextCall reports whether call is context.Background() or
// context.TODO(), returning the function name.
func rootContextCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name, true
	}
	return "", false
}

// callTakesContext reports whether the callee's signature accepts a
// context.Context parameter.
func callTakesContext(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// contextSibling finds a context-aware variant of fn: a function or method
// named fn.Name()+"Context" in the same scope (package scope for
// functions, the receiver's method set for methods) whose first parameter
// is a context.Context.
func contextSibling(fn *types.Func) *types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	want := fn.Name() + "Context"
	if recv := sig.Recv(); recv != nil {
		n := namedOf(recv.Type())
		if n == nil {
			return nil
		}
		for i := 0; i < n.NumMethods(); i++ {
			if m := n.Method(i); m.Name() == want && firstParamIsContext(m) {
				return m
			}
		}
		return nil
	}
	if fn.Pkg() == nil {
		return nil
	}
	sib, ok := fn.Pkg().Scope().Lookup(want).(*types.Func)
	if ok && firstParamIsContext(sib) {
		return sib
	}
	return nil
}

func firstParamIsContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// threadSiblingFix rewrites `X(args)` into `XContext(ctx, args)`: one edit
// renames the callee, one inserts the context as the first argument.
func threadSiblingFix(ctx *Context, call *ast.CallExpr, fn *types.Func, ctxParam string) SuggestedFix {
	var namePos, nameEnd token.Pos
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		namePos, nameEnd = fun.Pos(), fun.End()
	case *ast.SelectorExpr:
		namePos, nameEnd = fun.Sel.Pos(), fun.Sel.End()
	default:
		namePos, nameEnd = call.Fun.Pos(), call.Fun.End()
	}
	arg := ctxParam
	if len(call.Args) > 0 {
		arg += ", "
	}
	return SuggestedFix{
		Message: "call the context-aware sibling " + fn.Name() + "Context",
		Edits: []TextEdit{
			ctx.Edit(namePos, nameEnd, fn.Name()+"Context"),
			ctx.Edit(call.Lparen+1, call.Lparen+1, arg),
		},
	}
}
