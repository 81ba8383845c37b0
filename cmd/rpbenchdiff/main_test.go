package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/bench"
)

// fixture writes `go test -bench` style output: n samples of one benchmark
// around base ns/op with a deterministic jitter pattern.
func fixture(t *testing.T, name string, base float64, n int) string {
	t.Helper()
	jitter := []float64{0, 0.021, -0.017, 0.008, -0.026, 0.013, -0.004, 0.029, -0.011, 0.018}
	var b strings.Builder
	b.WriteString("goos: linux\npkg: example/fixture\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "BenchmarkMine-8 \t 1000\t %.0f ns/op\n", base*(1+jitter[i%len(jitter)]))
	}
	b.WriteString("PASS\n")
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFlagsRegression(t *testing.T) {
	oldPath := fixture(t, "old.txt", 1000, 10)
	newPath := fixture(t, "new.txt", 1200, 10)
	var out strings.Builder
	regressions, err := run([]string{oldPath, newPath}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1; output:\n%s", regressions, out.String())
	}
	for _, want := range []string{"BenchmarkMine", "regression", "+"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSilentOnIdenticalRuns(t *testing.T) {
	oldPath := fixture(t, "old.txt", 1000, 10)
	newPath := fixture(t, "new.txt", 1000, 10)
	var out strings.Builder
	regressions, err := run([]string{oldPath, newPath}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Errorf("regressions = %d, want 0; output:\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "~") {
		t.Errorf("output should mark the row statistically indistinguishable:\n%s", out.String())
	}
}

func TestRunMarkdownAndErrors(t *testing.T) {
	oldPath := fixture(t, "old.txt", 1000, 5)
	var out strings.Builder
	if _, err := run([]string{"-format", "markdown", oldPath, oldPath}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| BenchmarkMine |") {
		t.Errorf("markdown output malformed:\n%s", out.String())
	}

	if _, err := run([]string{oldPath}, nil, &out); err == nil {
		t.Error("one argument should be a usage error")
	}
	if _, err := run([]string{"-format", "csv", oldPath, oldPath}, nil, &out); err == nil {
		t.Error("unknown format should error")
	}
	if _, err := run([]string{oldPath, filepath.Join(t.TempDir(), "missing.txt")}, nil, &out); err == nil {
		t.Error("missing input file should error")
	}
	if _, err := run([]string{"-out", filepath.Join(t.TempDir(), "r.json"), oldPath, oldPath}, nil, &out); err == nil {
		t.Error("-out with two files should be a usage error")
	}
}

const sample = `goos: linux
goarch: amd64
pkg: github.com/recurpat/rp/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkBuildRPTree          	     100	  14472793 ns/op	  492360 B/op	    1898 allocs/op
BenchmarkMineEndToEnd-8       	      25	  43322959 ns/op	     230.0 patterns	 3944544 B/op	   24735 allocs/op
PASS
ok  	github.com/recurpat/rp/internal/core	0.238s
`

func TestRecordParsesAndTees(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "report.json")
	var stdout bytes.Buffer
	if _, err := run([]string{"-out", outFile}, strings.NewReader(sample), &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != sample {
		t.Errorf("stdout not an exact tee of the input:\n%s", stdout.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if rep.Context["goos"] != "linux" || rep.Context["cpu"] == "" {
		t.Errorf("context not captured: %+v", rep.Context)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkBuildRPTree" || b0.Iterations != 100 ||
		b0.Metrics["ns/op"] != 14472793 || b0.Metrics["allocs/op"] != 1898 {
		t.Errorf("first record wrong: %+v", b0)
	}
	b1 := rep.Benchmarks[1]
	if b1.Name != "BenchmarkMineEndToEnd-8" || b1.Metrics["patterns"] != 230 {
		t.Errorf("custom metric not captured: %+v", b1)
	}
}

func TestRecordRejectsEmptyRuns(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "report.json")
	_, err := run([]string{"-out", outFile}, strings.NewReader("PASS\nok x 1s\n"), new(bytes.Buffer))
	if err == nil {
		t.Fatal("want an error when no benchmark lines are present")
	}
	if _, statErr := os.Stat(outFile); !os.IsNotExist(statErr) {
		t.Error("report file created despite empty run")
	}
}

func TestRecordWithoutOutIsPureTee(t *testing.T) {
	var stdout bytes.Buffer
	if _, err := run(nil, strings.NewReader(sample), &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != sample {
		t.Error("pass-through output differs from input")
	}
}

func TestRecordRendersPhaseAttribution(t *testing.T) {
	traced := "BenchmarkMineEndToEndTraced-8 \t 10\t 50000000 ns/op\t 10000000 scan-ns/op\t 35000000 mine-ns/op\t 120.0 mine-count/op\n"
	var stdout bytes.Buffer
	if _, err := run(nil, strings.NewReader(traced), &stdout); err != nil {
		t.Fatal(err)
	}
	s := stdout.String()
	if !strings.Contains(s, "phase attribution (share of ns/op):") {
		t.Fatalf("attribution header missing:\n%s", s)
	}
	for _, want := range []string{"BenchmarkMineEndToEndTraced-8", "scan 20.0%", "mine 70.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("attribution missing %q:\n%s", want, s)
		}
	}
}
