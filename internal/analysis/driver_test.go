package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// renderDiags prints diagnostics the way rpvet's text format does, so
// equality checks below compare the exact bytes a user would see.
func renderDiags(t *testing.T, root string, diags []Diagnostic) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Print(&buf, root, diags); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// runDriver runs the full pass suite over every package of the module at
// root with the default parallelism, the way rpvet does.
func runDriver(root string) ([]Diagnostic, error) {
	dirs, err := ModuleDirs(root)
	if err != nil {
		return nil, err
	}
	return (&Driver{Root: root, Passes: Passes()}).Run(dirs)
}

// copyFixture clones the rpfix fixture module into a fresh temp dir so
// tests can edit files without touching testdata.
func copyFixture(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", "src", "rpfix"))
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "rpfix")
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestParallelMatchesSequential pins the driver's central contract: the
// merged output of a parallel run is byte-identical to a strictly
// sequential one. Run with -race in make check.
func TestParallelMatchesSequential(t *testing.T) {
	root := copyFixture(t)
	dirs, err := ModuleDirs(root)
	if err != nil {
		t.Fatal(err)
	}

	seq := &Driver{Root: root, Passes: Passes(), Workers: 1}
	seqDiags, err := seq.Run(dirs)
	if err != nil {
		t.Fatal(err)
	}
	want := renderDiags(t, root, seqDiags)
	if want == "" {
		t.Fatal("fixture run produced no findings; the comparison would be vacuous")
	}

	for run := 0; run < 3; run++ {
		par := &Driver{Root: root, Passes: Passes(), Workers: 8}
		parDiags, err := par.Run(dirs)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderDiags(t, root, parDiags); got != want {
			t.Fatalf("parallel run %d differs from sequential\n--- parallel ---\n%s--- sequential ---\n%s", run, got, want)
		}
	}
}
