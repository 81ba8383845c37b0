package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// LayeringPass enforces the module's import DAG on module-internal
// imports (rules are expressed on module-relative paths, so they apply
// unchanged to test fixture modules):
//
//	internal/tsdb      → nothing internal (the shared substrate)
//	internal/obs       → nothing internal (the observability substrate)
//	internal/obs/prof  → internal/obs (the cost readout rides on the substrate)
//	internal/core      → internal/tsdb, internal/obs
//	internal/gen       → internal/tsdb
//	internal/seq       → internal/tsdb
//	internal/baseline  → internal/tsdb, internal/core (measure API only)
//	internal/ext       → internal/core, internal/tsdb, internal/seq
//	internal/analysis  → nothing internal (stdlib-only by construction)
//	internal/cliio     → internal/obs
//	internal/api       → internal/core, internal/tsdb, internal/obs (the wire schema: no transport, no miner internals; obs for the trace-context payload types)
//	internal/shard     → internal/api, internal/core, internal/tsdb, internal/obs
//	internal/serve     → internal/api, internal/shard, internal/core, internal/tsdb, internal/cliio, internal/obs
//	internal/bench     → anything internal except cmd/
//	rp (module root)   → internal/core, internal/tsdb, internal/obs
//	examples/, cmd/    → unconstrained (leaves of the DAG)
//
// Some packages are additionally restricted on the importer side:
// internal/serve is the HTTP service's implementation and only
// cmd/rpserved may import it, so the library surface other code builds on
// stays the public rp package (and the service can change shape freely);
// internal/analysis is the vet tool's framework and only cmd/rpvet may
// import it, so pass plumbing never leaks into the miner;
// internal/obs/prof reads process-wide cost counters and only the serve
// layer and the cmds may import it, so the miner and the library packages
// never report the whole process's allocation and CPU time as their own.
//
// On top of the import edges, internal/baseline packages may reference
// only internal/core's shared measure API (Recurrence, Erec, ...): the
// baselines exist to be compared against RP-growth, so reaching into the
// miner itself would make the comparison circular.
func LayeringPass() *Pass {
	return &Pass{
		Name: "layering",
		Doc:  "enforce the internal import DAG and the baseline/core measure-API boundary",
		Run:  runLayering,
	}
}

// layerRule gives the module-internal import allowance for packages whose
// relative path matches Prefix. The longest matching prefix wins. A nil
// Allow means unconstrained; an empty Allow means no internal imports.
type layerRule struct {
	Prefix string
	Allow  []string
}

var layerRules = []layerRule{
	{Prefix: "internal/tsdb", Allow: []string{}},
	{Prefix: "internal/obs", Allow: []string{}},
	{Prefix: "internal/obs/prof", Allow: []string{"internal/obs"}},
	{Prefix: "internal/core", Allow: []string{"internal/tsdb", "internal/obs"}},
	{Prefix: "internal/gen", Allow: []string{"internal/tsdb"}},
	{Prefix: "internal/seq", Allow: []string{"internal/tsdb"}},
	{Prefix: "internal/baseline", Allow: []string{"internal/tsdb", "internal/core"}},
	{Prefix: "internal/ext", Allow: []string{"internal/core", "internal/tsdb", "internal/seq"}},
	{Prefix: "internal/analysis", Allow: []string{}},
	{Prefix: "internal/cliio", Allow: []string{"internal/obs"}},
	{Prefix: "internal/api", Allow: []string{"internal/core", "internal/tsdb", "internal/obs"}},
	{Prefix: "internal/shard", Allow: []string{"internal/api", "internal/core", "internal/tsdb", "internal/obs"}},
	{Prefix: "internal/serve", Allow: []string{"internal/api", "internal/shard", "internal/core", "internal/tsdb", "internal/cliio", "internal/obs"}},
	{Prefix: "internal/bench", Allow: []string{"internal"}},
	{Prefix: "", Allow: []string{"internal/core", "internal/tsdb", "internal/obs"}}, // module root
	{Prefix: "examples", Allow: nil},
	{Prefix: "cmd", Allow: nil},
}

// importRestriction closes a package to all importers except the listed
// prefixes (the package's own subpackages are always allowed). It is the
// converse of layerRule: instead of saying what a package may import, it
// says who may import the package. Checked on the importer side, on top
// of — not instead of — the importer's own Allow rule.
type importRestriction struct {
	Prefix  string   // the package being protected
	Allowed []string // importer prefixes that may use it
	Reason  string   // appended to the finding, explains the closure
}

var importRestrictions = []importRestriction{
	{Prefix: "internal/serve", Allowed: []string{"cmd/rpserved"},
		Reason: "everything else goes through the public rp package"},
	{Prefix: "internal/analysis", Allowed: []string{"cmd/rpvet"},
		Reason: "the vet framework is tooling, not a library for the miner"},
	{Prefix: "internal/obs/prof", Allowed: []string{"internal/serve", "cmd"},
		Reason: "it reads process-wide cost counters: service plumbing, not a library for the miner"},
}

// coreMeasureAPI is the part of internal/core the baselines may use: the
// shared recurrence measures and their types, nothing of the miner. The
// vertical search they run on (ts-list intersection and the depth-first
// walk) lives below core, in internal/tsdb, and needs no entry here.
var coreMeasureAPI = map[string]bool{
	"Recurrence":          true,
	"Erec":                true,
	"PeriodicAppearances": true,
	"MaxPeriodicity":      true,
	"Interval":            true,
	"MinPSFromPercent":    true,
}

func runLayering(ctx *Context) {
	rule := matchRule(ctx.Pkg.Rel)
	modPath := ctx.Loader.ModPath
	for _, f := range ctx.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path != modPath && !strings.HasPrefix(path, modPath+"/") {
				continue // stdlib (or external) imports are not layering's business
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(path, modPath), "/")
			if strings.HasPrefix(rel, "cmd/") || rel == "cmd" {
				ctx.Report(imp.Pos(), "import of %s: cmd/ packages are leaves of the DAG and must not be imported", rel)
				continue
			}
			if r, restricted := matchRestriction(rel); restricted && !importerAllowed(ctx.Pkg.Rel, r) {
				ctx.Report(imp.Pos(), "import of %s: only {%s} may import it (%s)", rel, strings.Join(r.Allowed, ", "), r.Reason)
				continue
			}
			if rule.Allow == nil {
				continue
			}
			if !allowedImport(rule.Allow, rel) {
				ctx.Report(imp.Pos(), "import of %s breaks the layering rules: %s may only import {%s}", rel, describeRel(ctx.Pkg.Rel), strings.Join(describeAllows(rule.Allow), ", "))
			}
		}
	}
	if strings.HasPrefix(ctx.Pkg.Rel, "internal/baseline") {
		checkBaselineUses(ctx)
	}
}

// matchRestriction returns the restriction protecting rel, if any.
func matchRestriction(rel string) (importRestriction, bool) {
	for _, r := range importRestrictions {
		if rel == r.Prefix || strings.HasPrefix(rel, r.Prefix+"/") {
			return r, true
		}
	}
	return importRestriction{}, false
}

// importerAllowed reports whether a package may import into restriction r:
// the protected package's own subtree always may, plus the listed prefixes.
func importerAllowed(importer string, r importRestriction) bool {
	if importer == r.Prefix || strings.HasPrefix(importer, r.Prefix+"/") {
		return true
	}
	for _, a := range r.Allowed {
		if importer == a || strings.HasPrefix(importer, a+"/") {
			return true
		}
	}
	return false
}

// matchRule returns the longest-prefix rule for a relative package path.
func matchRule(rel string) layerRule {
	best := layerRule{Allow: nil}
	bestLen := -1
	for _, r := range layerRules {
		if r.Prefix == "" {
			if rel == "" && bestLen < 0 {
				best, bestLen = r, 0
			}
			continue
		}
		if (rel == r.Prefix || strings.HasPrefix(rel, r.Prefix+"/")) && len(r.Prefix) > bestLen {
			best, bestLen = r, len(r.Prefix)
		}
	}
	return best
}

func allowedImport(allow []string, rel string) bool {
	for _, a := range allow {
		if a == "" {
			if rel == "" {
				return true
			}
			continue
		}
		if rel == a || strings.HasPrefix(rel, a+"/") {
			return true
		}
	}
	return false
}

func describeRel(rel string) string {
	if rel == "" {
		return "the module root"
	}
	return rel
}

func describeAllows(allow []string) []string {
	if len(allow) == 0 {
		return []string{"stdlib only"}
	}
	out := make([]string, len(allow))
	for i, a := range allow {
		out[i] = describeRel(a)
	}
	return out
}

// checkBaselineUses flags references from a baseline package into
// internal/core that go beyond the shared measure API.
func checkBaselineUses(ctx *Context) {
	corePath := ctx.Loader.ModPath + "/internal/core"
	type finding struct {
		pos  ast.Node
		name string
	}
	seen := map[string]bool{}
	var findings []finding
	for _, f := range ctx.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := ctx.Pkg.Info.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != corePath {
				return true
			}
			if _, isPkgName := obj.(*types.PkgName); isPkgName {
				return true
			}
			if coreMeasureAPI[obj.Name()] || seen[obj.Name()] {
				return true
			}
			seen[obj.Name()] = true
			findings = append(findings, finding{pos: id, name: obj.Name()})
			return true
		})
	}
	slices.SortFunc(findings, func(a, b finding) int { return int(a.pos.Pos()) - int(b.pos.Pos()) })
	for _, fd := range findings {
		ctx.Report(fd.pos.Pos(), "baseline packages may only use internal/core's measure API, not core.%s (the comparison must not lean on the miner under test)", fd.name)
	}
}
