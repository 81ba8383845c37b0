package analysis

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/token"
	"go/types"
	"strconv"
)

// SortSlicePass flags reflection-based sort.Slice calls whose first argument
// is a slice of a basic ordered type (integers, floats, strings). Those sites
// pay an interface-boxing and reflect.Swapper cost on every call for nothing:
// slices.Sort covers the natural ascending order and slices.SortFunc covers
// every other comparator, both monomorphic and allocation-free. The mining
// hot path was converted wholesale (see internal/core/merge.go); this pass
// keeps the conversion from regressing. Struct-element sorts are left alone —
// there sort.Slice and slices.SortFunc are an idiom choice, not a perf bug.
//
// When the comparator is the canonical ascending form
// `func(i, j int) bool { return xs[i] < xs[j] }`, the finding carries a
// suggested fix rewriting the call to `slices.Sort(xs)`, adding the
// "slices" import if missing and dropping the "sort" import when the fix
// removes its last use in the file. `rpvet -fix` applies it.
func SortSlicePass() *Pass {
	return &Pass{
		Name: "sortslice",
		Doc:  "forbid reflection-based sort.Slice on slices of basic ordered types in internal/ and cmd/",
		Run:  runSortSlice,
	}
}

func runSortSlice(ctx *Context) {
	if !determinismScope(ctx.Pkg.Rel) {
		return
	}
	info := ctx.Pkg.Info
	for _, f := range ctx.Pkg.Files {
		type site struct {
			call *ast.CallExpr
			fn   *types.Func
			elem *types.Basic
			asc  bool // canonical ascending comparator, fixable
		}
		var sites []site
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
				return true
			}
			if name := fn.Name(); name != "Slice" && name != "SliceStable" {
				return true
			}
			tv, ok := info.Types[call.Args[0]]
			if !ok {
				return true
			}
			sl, ok := tv.Type.Underlying().(*types.Slice)
			if !ok {
				return true
			}
			elem, ok := sl.Elem().Underlying().(*types.Basic)
			if !ok || elem.Info()&types.IsOrdered == 0 {
				return true
			}
			sites = append(sites, site{
				call: call,
				fn:   fn,
				elem: elem,
				asc:  fn.Name() == "Slice" && isAscendingComparator(ctx.Loader.Fset, call),
			})
			return true
		})
		if len(sites) == 0 {
			continue
		}

		fixable := 0
		for _, s := range sites {
			if s.asc {
				fixable++
			}
		}
		// Import surgery shared by every fix in the file: add "slices" if
		// missing, and drop "sort" when the fixes remove its last use.
		// Identical edits across fixes are deduplicated by the fix engine.
		var importEdits []TextEdit
		if fixable > 0 {
			removeSort := fixable == countPackageQualifiers(info, f, "sort")
			importEdits = sortImportEdits(ctx, f, removeSort)
		}
		for _, s := range sites {
			if !s.asc {
				ctx.Report(s.call.Pos(), "reflection-based sort.%s on []%s; use slices.Sort for ascending order or slices.SortFunc otherwise", s.fn.Name(), s.elem.Name())
				continue
			}
			edits := []TextEdit{ctx.Edit(s.call.Pos(), s.call.End(), "slices.Sort("+renderNode(ctx.Loader.Fset, s.call.Args[0])+")")}
			edits = append(edits, importEdits...)
			fix := []SuggestedFix{{Message: "replace with the monomorphic slices.Sort", Edits: edits}}
			ctx.ReportFix(s.call.Pos(), fix, "reflection-based sort.%s on []%s; use slices.Sort for ascending order or slices.SortFunc otherwise", s.fn.Name(), s.elem.Name())
		}
	}
}

// isAscendingComparator recognizes the canonical natural-order comparator:
// the second argument is `func(i, j int) bool { return xs[i] < xs[j] }`
// where xs prints identically to the sorted slice expression.
func isAscendingComparator(fset *token.FileSet, call *ast.CallExpr) bool {
	lit, ok := call.Args[1].(*ast.FuncLit)
	if !ok || lit.Type.Params == nil {
		return false
	}
	var params []string
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, name.Name)
		}
	}
	if len(params) != 2 {
		return false
	}
	if len(lit.Body.List) != 1 {
		return false
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	bin, ok := ret.Results[0].(*ast.BinaryExpr)
	if !ok || bin.Op != token.LSS {
		return false
	}
	x, ok := bin.X.(*ast.IndexExpr)
	if !ok {
		return false
	}
	y, ok := bin.Y.(*ast.IndexExpr)
	if !ok {
		return false
	}
	xi, ok := x.Index.(*ast.Ident)
	if !ok || xi.Name != params[0] {
		return false
	}
	yj, ok := y.Index.(*ast.Ident)
	if !ok || yj.Name != params[1] {
		return false
	}
	slice := renderNode(fset, call.Args[0])
	return renderNode(fset, x.X) == slice && renderNode(fset, y.X) == slice
}

// renderNode prints an AST node back to source text.
func renderNode(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, n); err != nil {
		return ""
	}
	return buf.String()
}

// countPackageQualifiers counts identifier uses in f that name the given
// package (each `sort.X` expression contributes exactly one).
func countPackageQualifiers(info *types.Info, f *ast.File, pkgPath string) int {
	count := 0
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == pkgPath {
			count++
		}
		return true
	})
	return count
}

// sortImportEdits builds the import-block edits shared by every
// sortslice fix in f: insert `"slices"` when the file does not import it
// yet, and delete the `"sort"` spec when removeSort says its last use is
// going away. The edits lean on the fix engine's final go/format run to
// restore canonical import ordering and spacing.
func sortImportEdits(ctx *Context, f *ast.File, removeSort bool) []TextEdit {
	var edits []TextEdit
	hasSlices := false
	for _, imp := range f.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "slices" {
			hasSlices = true
		}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if !hasSlices {
			if gd.Lparen.IsValid() {
				edits = append(edits, ctx.Edit(gd.Lparen+1, gd.Lparen+1, "\n\t\"slices\""))
			} else {
				edits = append(edits, ctx.Edit(gd.Pos(), gd.Pos(), "import \"slices\"\n"))
			}
			hasSlices = true
		}
		if removeSort {
			for i, spec := range gd.Specs {
				imp, ok := spec.(*ast.ImportSpec)
				if !ok {
					continue
				}
				if path, err := strconv.Unquote(imp.Path.Value); err != nil || path != "sort" {
					continue
				}
				if !gd.Lparen.IsValid() {
					// `import "sort"`: drop the whole declaration.
					edits = append(edits, ctx.Edit(gd.Pos(), gd.End(), ""))
				} else if i > 0 {
					edits = append(edits, ctx.Edit(gd.Specs[i-1].End(), imp.End(), ""))
				} else {
					edits = append(edits, ctx.Edit(gd.Lparen+1, imp.End(), ""))
				}
			}
		}
		break // only the first import declaration needs surgery
	}
	return edits
}
