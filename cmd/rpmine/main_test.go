package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/recurpat/rp"
)

const paperInput = `1	a b g
2	a c d
3	a b e f
4	a b c d
5	c d e f g
6	e f g
7	a b c g
9	c d
10	c d e f
11	a b e f
12	a b c d e f g
14	a b g
`

func writeInput(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "paper.tdb")
	if err := os.WriteFile(path, []byte(paperInput), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMinePaperFile(t *testing.T) {
	path := writeInput(t)
	var out bytes.Buffer
	err := run([]string{"-input", path, "-per", "2", "-minps", "3", "-minrec", "2"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d patterns, want 8:\n%s", len(lines), out.String())
	}
	if !strings.Contains(out.String(), "{a,b} [sup=7 rec=2") {
		t.Errorf("missing {a,b} row:\n%s", out.String())
	}
}

func TestMineTSVAndStats(t *testing.T) {
	path := writeInput(t)
	var out bytes.Buffer
	err := run([]string{"-input", path, "-per", "2", "-minps", "3", "-minrec", "2",
		"-format", "tsv", "-stats"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# db:") || !strings.Contains(s, "# search:") {
		t.Errorf("stats header missing:\n%s", s)
	}
	if !strings.Contains(s, "a b\t7\t2\t1:4:3,11:14:3") {
		t.Errorf("TSV row missing:\n%s", s)
	}
}

func TestMinePercentThreshold(t *testing.T) {
	path := writeInput(t)
	var out bytes.Buffer
	// 25% of 12 transactions = 3, same result as -minps 3.
	err := run([]string{"-input", path, "-per", "2", "-minps-pct", "25", "-minrec", "2"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(out.String()), "\n")); got != 8 {
		t.Fatalf("got %d patterns, want 8", got)
	}
}

func TestMineErrors(t *testing.T) {
	path := writeInput(t)
	var out bytes.Buffer
	if err := run([]string{"-input", "/does/not/exist", "-per", "2", "-minps", "3"}, &out, io.Discard); err == nil {
		t.Error("missing file must fail")
	}
	if err := run([]string{"-input", path, "-per", "0", "-minps", "3"}, &out, io.Discard); err == nil {
		t.Error("per=0 must fail")
	}
	if err := run([]string{"-badflag"}, &out, io.Discard); err == nil {
		t.Error("bad flag must fail")
	}
}

func TestMineJSONAndCSVFormats(t *testing.T) {
	path := writeInput(t)
	var out bytes.Buffer
	err := run([]string{"-input", path, "-per", "2", "-minps", "3", "-minrec", "2",
		"-format", "json"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := rp.ReadPatternsJSON(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 8 {
		t.Fatalf("JSON: got %d patterns, want 8", len(patterns))
	}

	out.Reset()
	err = run([]string{"-input", path, "-per", "2", "-minps", "3", "-minrec", "2",
		"-format", "csv"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	patterns, err = rp.ReadPatternsCSV(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 8 {
		t.Fatalf("CSV: got %d patterns, want 8", len(patterns))
	}

	out.Reset()
	if err := run([]string{"-input", path, "-per", "2", "-minps", "3",
		"-format", "nonsense"}, &out, io.Discard); err == nil {
		t.Error("unknown format must fail")
	}
}

func TestMinePhasesAndVerbose(t *testing.T) {
	path := writeInput(t)
	var out, errOut bytes.Buffer
	err := run([]string{"-input", path, "-per", "2", "-minps", "3", "-minrec", "2",
		"-phases", "-v"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	// Pattern output on stdout is unchanged by the observability flags.
	if got := len(strings.Split(strings.TrimSpace(out.String()), "\n")); got != 8 {
		t.Fatalf("got %d patterns, want 8:\n%s", got, out.String())
	}
	s := errOut.String()
	// -v: structured progress lines.
	for _, want := range []string{"msg=\"database loaded\"", "transactions=12",
		"msg=\"mining done\"", "patterns=8"} {
		if !strings.Contains(s, want) {
			t.Errorf("verbose log missing %q:\n%s", want, s)
		}
	}
	// -phases: the phase table with every top-level phase and the coverage
	// footer.
	for _, want := range []string{"phase", "scan", "tree-build", "mine",
		"finalize", "ts-merge", "erec-prune", "phase coverage, 1 run(s)"} {
		if !strings.Contains(s, want) {
			t.Errorf("phase table missing %q:\n%s", want, s)
		}
	}
}
