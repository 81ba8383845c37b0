// Benchmark comparison: collect repeated-run samples of one metric from
// bench output (text or a tracked BENCH_*.json report), test each
// benchmark's old-vs-new shift with a Mann–Whitney U test, and render a
// delta table. This is the engine behind cmd/rpbenchdiff.
//
// Why Mann–Whitney: benchmark timings are not normal — they are skewed by
// scheduler noise, GC pauses and frequency scaling, usually with a long
// right tail — so a t-test's normality assumption is off and a single
// outlier can swing its verdict. The rank-based U test only asks whether
// one distribution is stochastically larger than the other, is robust to
// outliers, and is what benchstat uses for the same job.
package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ParseBenchLine parses one `go test -bench` result line
// ("BenchmarkName-8   123   456 ns/op   7 B/op ...") into a record;
// ok=false for any other line. Shared by cmd/rpbenchdiff -out and the sample
// collection below.
func ParseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// Samples maps a benchmark name to the values one metric took across its
// repeated runs (`-count=N` gives N samples per name). Names are
// normalized: the "-<GOMAXPROCS>" suffix is stripped so reports recorded
// on different machines compare.
type Samples map[string][]float64

// normalizeBenchName strips the trailing "-<digits>" GOMAXPROCS suffix go
// test appends when running with more than one CPU.
func normalizeBenchName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// CollectSamples gathers the named metric from benchmark records into
// per-name sample sets. Records missing the metric are skipped.
func CollectSamples(benchmarks []Benchmark, metric string) Samples {
	s := make(Samples)
	for _, b := range benchmarks {
		if v, ok := b.Metrics[metric]; ok {
			name := normalizeBenchName(b.Name)
			s[name] = append(s[name], v)
		}
	}
	return s
}

// ReadSamples loads samples of one metric from a file holding either a
// BENCH_*.json report or raw `go test -bench` text (auto-detected).
func ReadSamples(path, metric string) (Samples, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var benchmarks []Benchmark
	if bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
		var r Report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: not a benchmark report: %w", path, err)
		}
		benchmarks = r.Benchmarks
	} else {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			if b, ok := ParseBenchLine(sc.Text()); ok {
				benchmarks = append(benchmarks, b)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	s := CollectSamples(benchmarks, metric)
	if len(s) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results carrying %q", path, metric)
	}
	return s, nil
}

// MannWhitneyU runs a two-sided Mann–Whitney U test and returns the
// p-value for the null hypothesis that x and y come from the same
// distribution. The normal approximation with tie correction and
// continuity correction is used — adequate for the sample sizes bench
// comparisons see (3 and up), and exactly what's needed to rank-test
// timings without a normality assumption. Fully tied samples (every value
// equal, e.g. comparing a run against itself) return p=1.
func MannWhitneyU(x, y []float64) float64 {
	n1, n2 := float64(len(x)), float64(len(y))
	if n1 == 0 || n2 == 0 {
		return 1
	}
	// Rank the pooled samples, averaging ranks across ties.
	type obs struct {
		v     float64
		group int // 0 = x, 1 = y
	}
	pooled := make([]obs, 0, len(x)+len(y))
	for _, v := range x {
		pooled = append(pooled, obs{v, 0})
	}
	for _, v := range y {
		pooled = append(pooled, obs{v, 1})
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i].v < pooled[j].v })

	n := len(pooled)
	var r1 float64      // rank sum of x
	var tieTerm float64 // sum over tie groups of t^3 - t
	for i := 0; i < n; {
		j := i
		for j < n && pooled[j].v == pooled[i].v {
			j++
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		// Average rank of this tie group (ranks are 1-based).
		rank := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			if pooled[k].group == 0 {
				r1 += rank
			}
		}
		i = j
	}

	u1 := r1 - n1*(n1+1)/2
	mu := n1 * n2 / 2
	nf := float64(n)
	sigma2 := n1 * n2 / 12 * ((nf + 1) - tieTerm/(nf*(nf-1)))
	if sigma2 <= 0 {
		return 1 // all values tied: no evidence of a shift
	}
	z := math.Abs(u1-mu) - 0.5 // continuity correction
	if z < 0 {
		z = 0
	}
	z /= math.Sqrt(sigma2)
	p := math.Erfc(z / math.Sqrt2) // two-sided
	if p > 1 {
		p = 1
	}
	return p
}

// DiffOptions parameterizes DiffSamples. The zero value is not useful;
// use DefaultDiffOptions for the conventional α=0.05, 5% threshold.
type DiffOptions struct {
	// Alpha is the significance level: a benchmark's shift counts only
	// when its Mann–Whitney p-value is below Alpha.
	Alpha float64
	// ThresholdPct additionally requires the median delta to exceed this
	// percentage in magnitude — statistically detectable 0.3% drifts are
	// not worth failing a build over.
	ThresholdPct float64
}

// DefaultDiffOptions is the conventional benchmark gate: α=0.05 (the
// standard false-positive budget; at ~10 tracked benchmarks it admits
// about one spurious flag per two runs, acceptable for an advisory gate)
// and a 5% median-shift floor, below which even a real change is noise
// relative to machine-to-machine variance.
func DefaultDiffOptions() DiffOptions { return DiffOptions{Alpha: 0.05, ThresholdPct: 5} }

// DiffRow is one benchmark's old-vs-new comparison.
type DiffRow struct {
	Name                 string
	OldN, NewN           int
	OldMedian, NewMedian float64
	// DeltaPct is the median shift (new-old)/old in percent; NaN when the
	// old median is zero.
	DeltaPct float64
	// P is the two-sided Mann–Whitney p-value.
	P float64
	// Significant means p < α and |DeltaPct| ≥ the threshold; Regression
	// additionally means the metric moved up (all tracked units — ns/op,
	// B/op, allocs/op — are smaller-is-better).
	Significant bool
	Regression  bool
	// OnlyIn marks rows present in just one input ("old" or "new"); such
	// rows are never significant.
	OnlyIn string
}

// DiffSamples compares two sample sets benchmark by benchmark, sorted by
// name. Benchmarks present on only one side become OnlyIn rows.
func DiffSamples(oldS, newS Samples, opt DiffOptions) []DiffRow {
	names := make([]string, 0, len(oldS)+len(newS))
	for name := range oldS {
		names = append(names, name)
	}
	for name := range newS {
		if _, ok := oldS[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	rows := make([]DiffRow, 0, len(names))
	for _, name := range names {
		o, n := oldS[name], newS[name]
		row := DiffRow{Name: name, OldN: len(o), NewN: len(n),
			OldMedian: median(o), NewMedian: median(n), P: 1, DeltaPct: math.NaN()}
		switch {
		case len(o) == 0:
			row.OnlyIn = "new"
		case len(n) == 0:
			row.OnlyIn = "old"
		default:
			if row.OldMedian != 0 {
				row.DeltaPct = (row.NewMedian - row.OldMedian) / row.OldMedian * 100
			}
			row.P = MannWhitneyU(o, n)
			row.Significant = row.P < opt.Alpha && !math.IsNaN(row.DeltaPct) &&
				math.Abs(row.DeltaPct) >= opt.ThresholdPct
			row.Regression = row.Significant && row.DeltaPct > 0
		}
		rows = append(rows, row)
	}
	return rows
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Regressions counts the rows flagged as significant regressions.
func Regressions(rows []DiffRow) int {
	c := 0
	for _, r := range rows {
		if r.Regression {
			c++
		}
	}
	return c
}

// FormatDiffText renders the comparison as an aligned text table with one
// verdict column: "regression"/"improvement" for significant shifts, "~"
// for statistically indistinguishable ones.
func FormatDiffText(rows []DiffRow, metric string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %14s %14s %9s %8s  %s\n", metric, "old median", "new median", "delta", "p", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %14s %14s %9s %8s  %s\n", r.Name,
			formatMetricValue(metric, r.OldMedian), formatMetricValue(metric, r.NewMedian),
			formatDelta(r), formatP(r), verdict(r))
	}
	return b.String()
}

// FormatDiffMarkdown renders the comparison as a GitHub-flavored markdown
// table, the shape a CI job drops into a summary.
func FormatDiffMarkdown(rows []DiffRow, metric string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| benchmark | old median | new median | delta | p | verdict |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n", r.Name,
			formatMetricValue(metric, r.OldMedian), formatMetricValue(metric, r.NewMedian),
			formatDelta(r), formatP(r), verdict(r))
	}
	return b.String()
}

func verdict(r DiffRow) string {
	switch {
	case r.OnlyIn != "":
		return "only in " + r.OnlyIn
	case r.Regression:
		return "regression"
	case r.Significant:
		return "improvement"
	default:
		return "~"
	}
}

func formatDelta(r DiffRow) string {
	if r.OnlyIn != "" || math.IsNaN(r.DeltaPct) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", r.DeltaPct)
}

func formatP(r DiffRow) string {
	if r.OnlyIn != "" {
		return "-"
	}
	return fmt.Sprintf("%.3f", r.P)
}

// formatMetricValue renders a metric value in its natural unit: durations
// for ns/op, binary sizes for B/op, plain numbers otherwise.
func formatMetricValue(metric string, v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch {
	case strings.HasSuffix(metric, "ns/op"):
		switch {
		case v >= 1e9:
			return fmt.Sprintf("%.2fs", v/1e9)
		case v >= 1e6:
			return fmt.Sprintf("%.2fms", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.1fµs", v/1e3)
		default:
			return fmt.Sprintf("%.0fns", v)
		}
	case strings.HasSuffix(metric, "B/op"):
		switch {
		case v >= 1<<20:
			return fmt.Sprintf("%.2fMiB", v/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.1fKiB", v/(1<<10))
		default:
			return fmt.Sprintf("%.0fB", v)
		}
	default:
		return strconv.FormatFloat(v, 'g', 6, 64)
	}
}
