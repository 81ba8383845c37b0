package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismPass guards the repo's canonical-output invariant (DESIGN
// §"Mine … result is canonically ordered"): mining, baselines and dataset
// generation must be bit-reproducible run to run. Inside internal/ and
// cmd/ packages it forbids
//
//   - time.Now — wall-clock reads make output time-dependent; benchmark
//     timing code opts out per line with //rpvet:allow determinism;
//   - the auto-seeded top-level functions of math/rand and math/rand/v2
//     (rand.IntN, rand.Float64, ...) — generators must thread an
//     explicitly seeded *rand.Rand so the same seed gives the same data;
//   - ranging over a map without a sort afterwards in the same function —
//     map iteration order would leak into results; collect the keys or
//     values and sort them (or allowlist aggregation loops whose output
//     is genuinely order-independent).
func DeterminismPass() *Pass {
	return &Pass{
		Name: "determinism",
		Doc:  "forbid time.Now, auto-seeded math/rand and unsorted map iteration in internal/ and cmd/",
		Run:  runDeterminism,
	}
}

// determinismScope reports whether the pass applies to a package.
func determinismScope(rel string) bool {
	return strings.HasPrefix(rel, "internal/") || rel == "internal" ||
		strings.HasPrefix(rel, "cmd/") || rel == "cmd"
}

// randConstructors are the math/rand{,/v2} top-level functions that build
// explicitly seeded generators rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
	"NewZipf": true,
}

func runDeterminism(ctx *Context) {
	if !determinismScope(ctx.Pkg.Rel) {
		return
	}
	info := ctx.Pkg.Info
	for _, f := range ctx.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := info.Uses[n.Sel]
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				// Only package-level functions: methods on *rand.Rand or
				// on time.Time values are fine.
				if fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" {
						ctx.Report(n.Pos(), "time.Now makes output wall-clock dependent; inject the timestamp or add //rpvet:allow determinism on timing code")
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[fn.Name()] {
						ctx.Report(n.Pos(), "auto-seeded %s.%s is nondeterministic; draw from an explicitly seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
					}
				}
			case *ast.RangeStmt:
				tv, ok := info.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				body := enclosingFuncBody(stack)
				if body == nil || sortedAfter(info, body, n) {
					return true
				}
				ctx.Report(n.Pos(), "map iteration order is random; sort what this loop produces (no sort call follows in this function) or add //rpvet:allow determinism")
			}
			return true
		})
	}
}

// sortedAfter reports whether a call into package sort or slices appears
// lexically after the range statement inside the same function body — the
// collect-then-sort idiom that makes a map iteration deterministic.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
			found = true
			return false
		}
		return true
	})
	return found
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
