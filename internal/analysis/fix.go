package analysis

import (
	"fmt"
	"go/format"
	"os"
	"slices"
	"strings"
)

// FixResult is the outcome of applying the suggested fixes of a
// diagnostic set: the rewritten content of every touched file, plus
// bookkeeping for the CLI summary.
type FixResult struct {
	// Files maps absolute paths to their fixed (and, for .go files,
	// gofmt-formatted) content.
	Files map[string][]byte
	// Applied counts the fixes whose edits were accepted.
	Applied int
	// Skipped counts the fixes dropped because an edit conflicted with an
	// already-accepted one (first writer wins, in diagnostic order).
	Skipped int
}

// ApplyFixes materializes the suggested fixes carried by diags. Fixes are
// considered in canonical diagnostic order; a fix is accepted only if
// none of its edits overlaps an already-accepted edit (byte-identical
// duplicate edits — e.g. two findings both inserting the same import —
// are deduplicated rather than conflicting). Touched .go files are run
// through go/format, which is what keeps the edits themselves simple:
// a fix may leave whitespace slightly off and formatting normalizes it.
func ApplyFixes(diags []Diagnostic) (*FixResult, error) {
	type span struct {
		start, end int
		newText    string
	}
	accepted := make(map[string][]span) // per file, unordered
	res := &FixResult{Files: make(map[string][]byte)}

	overlaps := func(file string, e TextEdit) (conflict, duplicate bool) {
		for _, s := range accepted[file] {
			if s.start == e.Start && s.end == e.End && s.newText == e.NewText {
				return false, true
			}
			// Two ranges conflict when they intersect; pure insertions at
			// the same offset (both empty) also conflict unless identical.
			if e.Start < s.end && s.start < e.End {
				return true, false
			}
			if e.Start == e.End && s.start == s.end && e.Start == s.start {
				return true, false
			}
		}
		return false, false
	}

	for _, d := range diags {
		for _, fix := range d.Fixes {
			ok := true
			for _, e := range fix.Edits {
				if c, _ := overlaps(e.File, e); c {
					ok = false
					break
				}
			}
			if !ok {
				res.Skipped++
				continue
			}
			res.Applied++
			for _, e := range fix.Edits {
				if _, dup := overlaps(e.File, e); dup {
					continue
				}
				accepted[e.File] = append(accepted[e.File], span{start: e.Start, end: e.End, newText: e.NewText})
			}
		}
	}

	var files []string
	for file := range accepted {
		files = append(files, file)
	}
	slices.Sort(files)
	for _, file := range files {
		content, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("analysis: applying fixes: %w", err)
		}
		spans := accepted[file]
		// Apply back to front so earlier offsets stay valid; on equal
		// starts the wider span (a deletion) goes before a pure insertion
		// at the same offset, so the insertion lands on untouched bytes.
		slices.SortFunc(spans, func(a, b span) int {
			if a.start != b.start {
				return b.start - a.start
			}
			return b.end - a.end
		})
		for _, s := range spans {
			if s.start < 0 || s.end > len(content) || s.start > s.end {
				return nil, fmt.Errorf("analysis: fix edit [%d,%d) out of range for %s (%d bytes)", s.start, s.end, file, len(content))
			}
			content = append(content[:s.start], append([]byte(s.newText), content[s.end:]...)...)
		}
		if strings.HasSuffix(file, ".go") {
			if formatted, err := format.Source(content); err == nil {
				content = formatted
			} else {
				return nil, fmt.Errorf("analysis: fixed %s does not parse: %w", file, err)
			}
		}
		res.Files[file] = content
	}
	return res, nil
}

// Write persists the fixed files to disk.
func (r *FixResult) Write() error {
	var files []string
	for file := range r.Files {
		files = append(files, file)
	}
	slices.Sort(files)
	for _, file := range files {
		info, err := os.Stat(file)
		mode := os.FileMode(0o644)
		if err == nil {
			mode = info.Mode().Perm()
		}
		if err := os.WriteFile(file, r.Files[file], mode); err != nil {
			return err
		}
	}
	return nil
}
