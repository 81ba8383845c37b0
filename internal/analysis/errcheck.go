package analysis

import (
	"go/ast"
	"go/types"
)

// ErrcheckPass flags dropped error return values module-wide. A call used
// as a bare statement (or behind go/defer) whose result set includes an
// error must consume it; assigning the error to _ is an explicit,
// accepted opt-out.
//
// Exclusions, to keep the pass signal-dense:
//
//   - fmt.Print/Printf/Println (best-effort stdout diagnostics);
//   - fmt.Fprint* writing to a destination that cannot fail
//     (*strings.Builder, *bytes.Buffer) or that is os.Stdout/os.Stderr;
//   - fmt.Fprint* writing to an error-latching writer — any writer type
//     with an `Err() error` method (e.g. internal/cliio.Writer), whose
//     contract is that the caller checks Err() once at the end;
//   - methods on strings.Builder and bytes.Buffer, whose Write* methods
//     are documented to never return a non-nil error;
//   - deferred Close calls — `defer f.Close()` is idiomatic best-effort
//     cleanup on read paths; write paths must check Close explicitly
//     before returning, which this pass cannot distinguish, so Close is
//     the one method name defer may drop.
func ErrcheckPass() *Pass {
	return &Pass{
		Name: "errcheck",
		Doc:  "flag dropped error return values module-wide",
		Run:  runErrcheck,
	}
}

var errorType = types.Universe.Lookup("error").Type()

func runErrcheck(ctx *Context) {
	info := ctx.Pkg.Info
	check := func(call *ast.CallExpr, deferred bool) {
		if !returnsError(info, call) || excludedCall(info, call, deferred) {
			return
		}
		ctx.Report(call.Pos(), "%s drops its error result; handle it or assign it to _", callName(info, call))
	}
	for _, f := range ctx.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call, false)
				}
			case *ast.GoStmt:
				check(n.Call, false)
			case *ast.DeferStmt:
				check(n.Call, true)
			}
			return true
		})
	}
}

// returnsError reports whether any result of the call is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(t, errorType)
	}
}

// excludedCall applies the documented exclusions.
func excludedCall(info *types.Info, call *ast.CallExpr, deferred bool) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false // calls through function values are always checked
	}
	if deferred && fn.Name() == "Close" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil && infallibleWriters[qualifiedName(n)] {
			return true
		}
		return false
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		return len(call.Args) > 0 && infallibleDest(info, call.Args[0])
	}
	return false
}

// infallibleWriters are types whose Write*/error-returning methods are
// documented to always return a nil error.
var infallibleWriters = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
}

// infallibleDest reports whether the fmt.Fprint* destination either cannot
// fail, is a best-effort process stream, or latches its first error behind
// an Err() error method for the caller to check later.
func infallibleDest(info *types.Info, dest ast.Expr) bool {
	// os.Stdout / os.Stderr by identity.
	if sel, ok := dest.(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[sel.Sel].(*types.Var); ok && obj.Pkg() != nil &&
			obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
			return true
		}
	}
	tv, ok := info.Types[dest]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if n := namedOf(t); n != nil && infallibleWriters[qualifiedName(n)] {
		return true
	}
	// Error-latching writer: has an Err() error method in its method set.
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		if m.Name() != "Err" {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		if ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			types.Identical(sig.Results().At(0).Type(), errorType) {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function or method, or nil for calls of
// function-typed values and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// callName renders the callee for the diagnostic message.
func callName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "call"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return "(" + qualifiedName(n) + ")." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return pathBase(fn.Pkg().Path()) + "." + fn.Name()
	}
	return fn.Name()
}

// namedOf unwraps pointers to reach a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// qualifiedName renders a named type as "pkgbase.Name".
func qualifiedName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return pathBase(obj.Pkg().Path()) + "." + obj.Name()
}
