// Command rpvet runs this repository's custom static-analysis passes: the
// determinism, errcheck, layering, concurrency, sortslice, ctxflow and
// goroutine-lifecycle rules of internal/analysis. It is stdlib-only
// (go/parser + go/types, no external driver) and is part of the repo
// gate: scripts/check.sh runs it next to go vet and the race-enabled
// tests, and CI fails on any finding.
//
// Usage:
//
//	rpvet [flags] [package-dir | ./... ...]
//
//	-list          list pass names and one-line docs
//	-pass a,b,...  run only these passes
//	-fix           apply the findings' suggested fixes to the tree
//	-C dir         change to this directory before resolving packages
//
// With no arguments (or "./...") every package of the enclosing module is
// analyzed. Findings print one per line as "file:line:col: pass: message"
// and make the exit status 1; a clean tree exits 0.
//
// Packages load and analyze in parallel (GOMAXPROCS at a time); the
// merged output is byte-identical to a sequential run.
//
// A finding is suppressed by a "//rpvet:allow <pass> <reason>" comment on
// the flagged line or the line above it — the escape hatch for, e.g., the
// benchmark timing code that is allowed to call time.Now. The reason is
// part of the contract: an unexplained suppression fails review, not the
// tool.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/recurpat/rp/internal/analysis"
	"github.com/recurpat/rp/internal/cliio"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpvet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("rpvet", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list the passes and exit")
		passFlag = fs.String("pass", "", "run only these comma-separated passes (default: all)")
		fixFlag  = fs.Bool("fix", false, "apply suggested fixes to the tree")
		dirFlag  = fs.String("C", "", "change to this directory before resolving packages")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *list {
		w := cliio.NewWriter(out)
		for _, p := range analysis.Passes() {
			fmt.Fprintf(w, "%-20s %s\n", p.Name, p.Doc)
		}
		return 0, w.Err()
	}
	passes := analysis.Passes()
	if *passFlag != "" {
		passes = passes[:0]
		for _, name := range strings.Split(*passFlag, ",") {
			p := analysis.PassByName(strings.TrimSpace(name))
			if p == nil {
				return 2, fmt.Errorf("unknown pass %q (see -list)", name)
			}
			passes = append(passes, p)
		}
	}

	base := *dirFlag
	if base == "" {
		var err error
		if base, err = os.Getwd(); err != nil {
			return 2, err
		}
	}
	root, err := analysis.FindModuleRoot(base)
	if err != nil {
		return 2, err
	}

	dirs, err := resolvePatterns(root, base, fs.Args())
	if err != nil {
		return 2, err
	}

	diags, err := (&analysis.Driver{Root: root, Passes: passes}).Run(dirs)
	if err != nil {
		return 2, err
	}
	if *fixFlag {
		if diags, err = applyFixes(diags); err != nil {
			return 2, err
		}
	}
	n, err := analysis.Print(out, root, diags)
	if err != nil {
		return 2, err
	}
	if n > 0 {
		return 1, nil
	}
	return 0, nil
}

// applyFixes writes the findings' suggested fixes to the tree and returns
// the findings no fix could resolve.
func applyFixes(diags []analysis.Diagnostic) ([]analysis.Diagnostic, error) {
	res, err := analysis.ApplyFixes(diags)
	if err != nil {
		return nil, err
	}
	if err := res.Write(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "rpvet: applied %d fix(es) to %d file(s)", res.Applied, len(res.Files))
	if res.Skipped > 0 {
		fmt.Fprintf(os.Stderr, ", skipped %d conflicting", res.Skipped)
	}
	fmt.Fprintln(os.Stderr)
	var unfixed []analysis.Diagnostic
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			unfixed = append(unfixed, d)
		}
	}
	return unfixed, nil
}

// resolvePatterns maps the command-line package patterns to directories:
// "./..." (or no argument) is the whole module, "dir/..." a subtree, and
// anything else a single package directory.
func resolvePatterns(root, base string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	var all []string // module dirs, resolved lazily
	moduleDirs := func() ([]string, error) {
		if all == nil {
			var err error
			all, err = analysis.ModuleDirs(root)
			if err != nil {
				return nil, err
			}
		}
		return all, nil
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			md, err := moduleDirs()
			if err != nil {
				return nil, err
			}
			for _, d := range md {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			prefix, err := filepath.Abs(filepath.Join(base, strings.TrimSuffix(pat, "/...")))
			if err != nil {
				return nil, err
			}
			md, err := moduleDirs()
			if err != nil {
				return nil, err
			}
			for _, d := range md {
				if d == prefix || strings.HasPrefix(d, prefix+string(filepath.Separator)) {
					add(d)
				}
			}
		default:
			abs, err := filepath.Abs(filepath.Join(base, pat))
			if err != nil {
				return nil, err
			}
			add(abs)
		}
	}
	return dirs, nil
}
