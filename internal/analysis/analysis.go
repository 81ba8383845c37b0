package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"slices"
	"strings"
)

// TextEdit replaces the bytes [Start, End) of File with NewText. File is
// an absolute path; offsets are byte offsets into the file as parsed.
type TextEdit struct {
	File    string
	Start   int
	End     int
	NewText string
}

// SuggestedFix is a self-contained, automatically applicable resolution
// for one diagnostic. The contract (see DESIGN.md "Pass author's guide"):
// applying every edit of the fix — and nothing else — must leave the tree
// building, gofmt-clean after formatting, and free of the finding that
// carried the fix. Edits of one fix must not overlap; identical edits
// from different fixes (e.g. two findings both inserting the same import)
// are deduplicated by the fix engine.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// Diagnostic is one finding of one pass.
type Diagnostic struct {
	Pos   token.Position
	Pass  string
	Msg   string
	Fixes []SuggestedFix
}

// String renders the finding as "file:line:col: pass: message" with the
// file path relative to root (when possible), the format the golden tests
// and scripts/check.sh consume.
func (d Diagnostic) String(root string) string {
	file := d.Pos.Filename
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", file, d.Pos.Line, d.Pos.Column, d.Pass, d.Msg)
}

// Pass is one analysis over a single package.
type Pass struct {
	// Name is the identifier used in output and in //rpvet:allow directives.
	Name string
	// Doc is a one-line description shown by rpvet -list.
	Doc string
	// Run inspects one package and reports findings through ctx.Report.
	Run func(ctx *Context)
}

// Context hands one package to a pass and collects its findings.
type Context struct {
	Loader *Loader
	Pkg    *Package

	pass string
	out  *[]Diagnostic
}

// Report records a finding at pos.
func (ctx *Context) Report(pos token.Pos, format string, args ...any) {
	ctx.ReportFix(pos, nil, format, args...)
}

// ReportFix records a finding at pos carrying zero or more suggested
// fixes (nil fixes are skipped, so passes can build the fix conditionally
// and hand over whatever they managed to construct).
func (ctx *Context) ReportFix(pos token.Pos, fixes []SuggestedFix, format string, args ...any) {
	*ctx.out = append(*ctx.out, Diagnostic{
		Pos:   ctx.Loader.Fset.Position(pos),
		Pass:  ctx.pass,
		Msg:   fmt.Sprintf(format, args...),
		Fixes: fixes,
	})
}

// Edit builds a TextEdit replacing the source range [start, end) with
// newText, resolving the token positions through the loader's FileSet.
func (ctx *Context) Edit(start, end token.Pos, newText string) TextEdit {
	sp := ctx.Loader.Fset.Position(start)
	ep := ctx.Loader.Fset.Position(end)
	return TextEdit{File: sp.Filename, Start: sp.Offset, End: ep.Offset, NewText: newText}
}

// Passes returns the full suite in its fixed running order.
func Passes() []*Pass {
	return []*Pass{
		DeterminismPass(),
		ErrcheckPass(),
		LayeringPass(),
		ConcurrencyPass(),
		SortSlicePass(),
		CtxflowPass(),
		GoroutineLifecyclePass(),
	}
}

// PassByName looks a pass up by its directive name.
func PassByName(name string) *Pass {
	for _, p := range Passes() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// runPass is the unit of work the driver schedules: one pass over one
// package, allow-directives already applied. The result depends only on
// the package's source (and, through type information, its dependencies'
// source), never on scheduling, which is what makes the parallel driver's
// merged output byte-identical to a sequential run.
func runPass(l *Loader, pkg *Package, pass *Pass) []Diagnostic {
	var diags []Diagnostic
	ctx := &Context{Loader: l, Pkg: pkg, pass: pass.Name, out: &diags}
	pass.Run(ctx)
	return filterAllowed(l, pkg, diags)
}

// SortDiagnostics orders findings by file, line, column, then pass name —
// the canonical output order.
func SortDiagnostics(diags []Diagnostic) {
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		if a.Pos.Filename != b.Pos.Filename {
			return cmp.Compare(a.Pos.Filename, b.Pos.Filename)
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line - b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column - b.Pos.Column
		}
		return cmp.Compare(a.Pass, b.Pass)
	})
}

// Print writes the diagnostics one per line and returns how many there
// were, so callers can turn findings into a non-zero exit.
func Print(w io.Writer, root string, diags []Diagnostic) (int, error) {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String(root)); err != nil {
			return 0, err
		}
	}
	return len(diags), nil
}

// allowKey identifies one source line of one file.
type allowKey struct {
	file string
	line int
}

// filterAllowed drops diagnostics covered by an "//rpvet:allow <pass>"
// comment directive. A directive covers the line it sits on (trailing
// comment) and the line directly below it (standalone comment above the
// flagged statement). Several passes may be listed, comma-separated:
//
//	start := time.Now() //rpvet:allow determinism
//	//rpvet:allow errcheck,determinism
//	doRiskyThing()
func filterAllowed(l *Loader, pkg *Package, diags []Diagnostic) []Diagnostic {
	allowed := make(map[allowKey]map[string]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				passes, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				end := l.Fset.Position(c.End())
				for _, line := range []int{end.Line, end.Line + 1} {
					key := allowKey{file: end.Filename, line: line}
					if allowed[key] == nil {
						allowed[key] = make(map[string]bool)
					}
					for _, p := range passes {
						allowed[key][p] = true
					}
				}
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if allowed[allowKey{file: d.Pos.Filename, line: d.Pos.Line}][d.Pass] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// parseAllow extracts the pass names from an "//rpvet:allow p1,p2 reason"
// comment, reporting ok=false for any other comment.
func parseAllow(text string) ([]string, bool) {
	rest, ok := strings.CutPrefix(text, "//rpvet:allow")
	if !ok {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	var passes []string
	for _, p := range strings.Split(fields[0], ",") {
		if p = strings.TrimSpace(p); p != "" {
			passes = append(passes, p)
		}
	}
	return passes, len(passes) > 0
}

// enclosingFunc returns the body of the innermost function declaration or
// literal in path (a Inspect-style ancestor stack, outermost first) that
// contains the node at stack top.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// inspectWithStack walks the file keeping the ancestor stack, calling fn
// for every node with the stack of its ancestors (outermost first, not
// including the node itself).
func inspectWithStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		recurse := fn(n, stack)
		if recurse {
			stack = append(stack, n)
		}
		return recurse
	})
}
