package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenCompare checks got against the golden file, rewriting it under
// -update.
func goldenCompare(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestApplyFixesGolden applies every suggested fix the fixture module
// produces and pins the rewritten files byte for byte. Each file must
// parse and come out gofmt-clean (ApplyFixes errors otherwise).
func TestApplyFixesGolden(t *testing.T) {
	root, diags := loadFixture(t)
	res, err := ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture carries exactly five fixes: three ctxflow rewrites and
	// two sortslice conversions; none of them conflict.
	if res.Applied != 5 || res.Skipped != 0 {
		t.Errorf("applied %d fixes, skipped %d; want 5 applied, 0 skipped", res.Applied, res.Skipped)
	}
	wantFiles := map[string]bool{
		"internal/core/ctxflow.go":   true,
		"internal/core/sortslice.go": true,
		"internal/core/sortonly.go":  true,
	}
	for file, content := range res.Files {
		rel, err := filepath.Rel(root, file)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		if !wantFiles[rel] {
			t.Errorf("fixes touched unexpected file %s", rel)
			continue
		}
		delete(wantFiles, rel)
		goldenCompare(t, filepath.Join("testdata", "golden", "fixed", filepath.Base(rel)), content)
	}
	for rel := range wantFiles {
		t.Errorf("fixes did not touch %s", rel)
	}
}

// TestApplyFixesReachFixedPoint applies and writes every suggested fix on
// a copy of the fixture module, then re-runs the suite: no remaining
// finding may carry a fix, and exactly one finding must be gone per
// applied fix. This is what keeps a clean tree a fixed point of
// `rpvet -fix`: every fix rides on a reported finding.
func TestApplyFixesReachFixedPoint(t *testing.T) {
	root := copyFixture(t)
	before, err := runDriver(root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ApplyFixes(before)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied == 0 {
		t.Fatal("fixture carries no fixes; the fixed-point check would be vacuous")
	}
	if err := res.Write(); err != nil {
		t.Fatal(err)
	}
	after, err := runDriver(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range after {
		if len(d.Fixes) > 0 {
			t.Errorf("finding still carries a fix after -fix: %s", d.String(root))
		}
	}
	if got, want := len(after), len(before)-res.Applied; got != want {
		t.Errorf("%d findings after applying %d fixes to %d, want %d\n%s",
			got, res.Applied, len(before), want, renderDiags(t, root, after))
	}
}

// TestApplyFixesConflicts pins the engine's conflict policy: first writer
// wins in diagnostic order, identical edits deduplicate, overlapping ones
// skip the later fix.
func TestApplyFixesConflicts(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.txt")
	if err := os.WriteFile(file, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}

	mkdiag := func(edits ...TextEdit) Diagnostic {
		return Diagnostic{Pass: "test", Fixes: []SuggestedFix{{Message: "m", Edits: edits}}}
	}
	diags := []Diagnostic{
		mkdiag(TextEdit{File: file, Start: 0, End: 2, NewText: "XY"}),  // wins
		mkdiag(TextEdit{File: file, Start: 1, End: 3, NewText: "ZZ"}),  // overlaps: skipped
		mkdiag(TextEdit{File: file, Start: 0, End: 2, NewText: "XY"}),  // identical: deduplicated, still applied
		mkdiag(TextEdit{File: file, Start: 4, End: 4, NewText: "-"}),   // insertion elsewhere: applied
		mkdiag(TextEdit{File: file, Start: 4, End: 4, NewText: "oth"}), // different insertion at same offset: skipped
	}
	res, err := ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 3 || res.Skipped != 2 {
		t.Errorf("applied %d, skipped %d; want 3 applied, 2 skipped", res.Applied, res.Skipped)
	}
	if got, want := string(res.Files[file]), "XYcd-ef"; got != want {
		t.Errorf("fixed content %q, want %q", got, want)
	}
}
