// Command rpbenchdiff records benchmark runs and compares them — a
// benchstat-style gate over the repo's tracked baselines.
//
// Usage:
//
//	rpbenchdiff [-out report.json] < bench-output
//	rpbenchdiff [-metric ns/op] [-alpha 0.05] [-threshold 5] \
//	            [-format text|markdown] old new
//
// With no file arguments it records: `go test -bench` text on stdin passes
// through to stdout unchanged, so one pipeline both shows the run and
// records it:
//
//	go test -run '^$' -bench . -benchmem ./internal/core/ | rpbenchdiff -out BENCH_core.json
//
// Rows that carry the phase tracer's "<phase>-ns/op" metrics (the traced
// core benchmarks, rpbench -json) get a phase-attribution summary appended
// after the tee, one line per row with each phase's share of ns/op. With
// -out the run is also written as a JSON report: the run context lines
// (goos, goarch, pkg, cpu) and one record per benchmark result with the
// iteration count and every reported metric (ns/op, B/op, allocs/op,
// custom b.ReportMetric units). The JSON is byte-deterministic for
// identical input: records keep input order and encoding/json sorts metric
// keys, so committed reports diff cleanly.
//
// With two file arguments it compares. old and new are each either such a
// report or raw `go test -bench -count=N` text; the format is
// auto-detected, and the two sides may differ. Each benchmark's repeated
// runs become a sample set, old and new are compared with a two-sided
// Mann–Whitney U test (rank-based, so no normality assumption about timing
// noise), and a shift counts only when p < alpha AND the median moved by
// at least -threshold percent. All compared units are smaller-is-better,
// so an upward significant shift is a regression.
//
// The exit status is the gate: 0 when no benchmark regressed
// significantly, 1 when at least one did, 2 on usage or input errors.
// `make bench-core` and `make bench-ingest` record through this tool,
// `make bench-diff` compares against BENCH_core.json and
// BENCH_ingest.json, and CI runs the comparison as an advisory job.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/recurpat/rp/internal/bench"
	"github.com/recurpat/rp/internal/cliio"
)

func main() {
	regressions, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbenchdiff:", err)
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "rpbenchdiff: %d significant regression(s)\n", regressions)
		os.Exit(1)
	}
}

func run(args []string, src io.Reader, dst io.Writer) (regressions int, err error) {
	out := cliio.NewWriter(dst)
	fs := flag.NewFlagSet("rpbenchdiff", flag.ContinueOnError)
	def := bench.DefaultDiffOptions()
	var (
		outFile   = fs.String("out", "", "write the run read from stdin as a JSON report to this file")
		metric    = fs.String("metric", "ns/op", "metric to compare")
		alpha     = fs.Float64("alpha", def.Alpha, "significance level for the Mann-Whitney test")
		threshold = fs.Float64("threshold", def.ThresholdPct, "minimum median shift in percent to count a significant result")
		format    = fs.String("format", "text", "output format: text or markdown")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	switch {
	case fs.NArg() == 0:
		return 0, record(src, out, *outFile)
	case fs.NArg() != 2 || *outFile != "":
		return 0, fmt.Errorf("usage: rpbenchdiff [-out report.json] < bench-output, or rpbenchdiff [flags] old new (bench text or BENCH_*.json each)")
	}
	if *format != "text" && *format != "markdown" {
		return 0, fmt.Errorf("-format %q: want text or markdown", *format)
	}

	oldS, err := bench.ReadSamples(fs.Arg(0), *metric)
	if err != nil {
		return 0, err
	}
	newS, err := bench.ReadSamples(fs.Arg(1), *metric)
	if err != nil {
		return 0, err
	}
	rows := bench.DiffSamples(oldS, newS, bench.DiffOptions{Alpha: *alpha, ThresholdPct: *threshold})
	if *format == "markdown" {
		fmt.Fprint(out, bench.FormatDiffMarkdown(rows, *metric))
	} else {
		fmt.Fprint(out, bench.FormatDiffText(rows, *metric))
	}
	if err := out.Err(); err != nil {
		return 0, err
	}
	return bench.Regressions(rows), nil
}

// record tees bench text from src to out, appends the phase attribution
// of traced rows and, when outFile is set, writes the run as a report.
func record(src io.Reader, out *cliio.Writer, outFile string) error {
	report := bench.Report{Context: map[string]string{}}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line)
		if b, ok := bench.ParseBenchLine(line); ok {
			report.Benchmarks = append(report.Benchmarks, b)
			continue
		}
		if k, v, ok := strings.Cut(line, ": "); ok && !strings.Contains(k, " ") && len(report.Benchmarks) == 0 {
			report.Context[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// Untraced runs have no phase metrics and add nothing here.
	fmt.Fprint(out, bench.FormatPhaseMetrics(report.Benchmarks))
	if err := out.Err(); err != nil {
		return err
	}
	if outFile == "" {
		return nil
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in input; not writing %s", outFile)
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outFile, append(data, '\n'), 0o644)
}
