package bench

import (
	"fmt"
	"strings"

	"github.com/recurpat/rp/internal/obs"
)

// Benchmark is one benchmark result row: the shape cmd/rpbenchdiff parses out
// of `go test -bench` text, and the shape rpbench -json emits for the timed
// Table 7 cells. Metrics holds every reported unit (ns/op, B/op, and the
// tracer's "<phase>-ns/op" / "<phase>-count/op" attribution keys).
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the benchmark report file (BENCH_*.json) shared by cmd/rpbenchdiff
// and rpbench -json: run context plus one record per benchmark, with
// records in input order and metric keys sorted by encoding/json so
// committed reports diff cleanly.
type Report struct {
	Context    map[string]string `json:"context"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// FormatPhaseMetrics renders the per-phase attribution carried by benchmark
// rows whose metrics include the tracer's "<phase>-ns/op" keys: one line
// per such row giving each phase's share of the row's ns/op. Rows without
// phase metrics are skipped; when none carry any, the result is empty.
func FormatPhaseMetrics(benchmarks []Benchmark) string {
	var b strings.Builder
	for _, bm := range benchmarks {
		total := bm.Metrics["ns/op"]
		var parts []string
		for _, phase := range obs.PhaseNames() {
			ns, ok := bm.Metrics[phase+"-ns/op"]
			if !ok || ns <= 0 {
				continue
			}
			if total > 0 {
				parts = append(parts, fmt.Sprintf("%s %.1f%%", phase, 100*ns/total))
			} else {
				parts = append(parts, fmt.Sprintf("%s %.2fms", phase, ns/1e6))
			}
		}
		if len(parts) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-44s %s\n", bm.Name, strings.Join(parts, "  "))
	}
	if b.Len() == 0 {
		return ""
	}
	return "phase attribution (share of ns/op):\n" + b.String()
}
