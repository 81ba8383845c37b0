package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q=0.5 is the median). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// p90Note renders xs's p90 for the report, or why it is left out.
func p90Note(xs []float64) string {
	if v := p90(xs); !math.IsNaN(v) {
		return fmt.Sprintf("%.3f ms", v)
	}
	return fmt.Sprintf("left out (%d samples, fewer than %d)", len(xs), minP90Samples)
}

// minP90Samples is the smallest class sample a p90 is reported from: ten
// samples beyond the percentile.
const minP90Samples = 100

// p90 returns the 0.9-quantile of xs, or NaN when xs holds too few samples
// for one (the metric is then left out of the report).
func p90(xs []float64) float64 {
	if len(xs) < minP90Samples {
		return math.NaN()
	}
	return quantile(xs, 0.9)
}

// layerRow is one row of a workload's per-op layer table.
type layerRow struct {
	name   string
	ms     float64 // mean per op
	nested bool    // contained in the row above; not part of the sum
	note   string
}

// layerTable prints rows and the unattributed remainder, which makes the
// top-level rows sum to opMS exactly. It returns the remainder.
func layerTable(w io.Writer, workload string, opMS float64, rows []layerRow) float64 {
	sum := 0.0
	for _, r := range rows {
		if !r.nested {
			sum += r.ms
		}
	}
	un := opMS - sum
	fmt.Fprintf(w, "layer table, %s (ms per op, mean):\n", workload)
	for _, r := range rows {
		name := r.name
		if r.nested {
			name = "  " + name
		}
		fmt.Fprintf(w, "  %-22s %12.3f  %s\n", name, r.ms, r.note)
	}
	fmt.Fprintf(w, "  %-22s %12.3f  %s\n", "unattributed_ms", un, "op time minus the rows above")
	fmt.Fprintf(w, "  %-22s %12.3f  %s\n", "= op_ms_mean", opMS, "client-observed")
	return un
}

// printMetrics writes metrics as an aligned name/value/unit table, sorted
// by name, skipping values that could not be measured (NaN).
func printMetrics(w io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(w, "%s:\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// finish assembles the result line: with trace off the end-to-end metrics,
// with trace on the per-layer ones. NaN metrics (a p90 over too few
// samples) are dropped.
func finish(w io.Writer, attempted, failed int, metrics map[string]metric) error {
	out := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for k, v := range metrics {
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			out.Metrics[k] = v
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// rule prints a section separator.
func rule(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s %s\n", title, strings.Repeat("=", max(0, 60-len(title))))
}
