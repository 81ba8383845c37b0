package obs

import (
	"fmt"
	"strings"
	"time"
)

// PhaseStat is one phase's aggregate in a report snapshot.
type PhaseStat struct {
	// Phase is the canonical phase name (Phase.String).
	Phase string `json:"phase"`
	// Nanos is the wall time attributed to the phase. For nested phases
	// it is contained in an enclosing phase's time.
	Nanos int64 `json:"nanos"`
	// Count is the number of work units, in Unit.
	Count int64 `json:"count"`
	// Unit names what Count counts ("tasks", "merges", ...).
	Unit string `json:"unit"`
	// Nested marks phases whose time is contained in another phase's and
	// must not be added to coverage sums.
	Nested bool `json:"nested,omitempty"`
}

// PhaseReport is a point-in-time snapshot of a Trace: per-phase times and
// work counts plus the whole-run total they are measured against. The
// individual loads are atomic but the snapshot as a whole is not, which is
// fine for reporting.
type PhaseReport struct {
	Phases     []PhaseStat `json:"phases"`
	TotalNanos int64       `json:"totalNanos"`
	Runs       int64       `json:"runs"`
}

// Report snapshots the trace. A nil trace reports zero phases.
func (t *Trace) Report() PhaseReport {
	if t == nil {
		return PhaseReport{}
	}
	r := PhaseReport{
		Phases:     make([]PhaseStat, 0, NumPhases),
		TotalNanos: t.totalNanos.Load(),
		Runs:       t.runs.Load(),
	}
	for p := Phase(0); p < NumPhases; p++ {
		r.Phases = append(r.Phases, PhaseStat{
			Phase:  p.String(),
			Nanos:  t.nanos[p].Load(),
			Count:  t.counts[p].Load(),
			Unit:   p.Unit(),
			Nested: p.Nested(),
		})
	}
	return r
}

// CoveredNanos sums the top-level phase times — the part of TotalNanos the
// tracer attributed to a phase. Nested phases are excluded (their time is
// already inside PhaseMine's).
func (r PhaseReport) CoveredNanos() int64 {
	var sum int64
	for _, s := range r.Phases {
		if !s.Nested {
			sum += s.Nanos
		}
	}
	return sum
}

// String renders the report as an aligned table: one row per phase with its
// wall time, share of the run total, and work count, nested phases indented
// under the phase containing them, then the coverage line. Sequential runs
// cover their total to within scheduling noise; parallel runs sum per-task
// times across workers, so their mine row can exceed 100% of wall time.
func (r PhaseReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %8s %14s\n", "phase", "time", "share", "work")
	for _, s := range r.Phases {
		name := s.Phase
		if s.Nested {
			name = "  " + name
		}
		share := "-"
		if !s.Nested && r.TotalNanos > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(s.Nanos)/float64(r.TotalNanos))
		}
		tm := "-"
		if s.Nanos > 0 {
			tm = formatNanos(s.Nanos)
		}
		fmt.Fprintf(&b, "%-14s %12s %8s %14s\n", name, tm, share,
			fmt.Sprintf("%d %s", s.Count, s.Unit))
	}
	fmt.Fprintf(&b, "%-14s %12s", "total", formatNanos(r.TotalNanos))
	if r.TotalNanos > 0 {
		fmt.Fprintf(&b, " %7.1f%%", 100*float64(r.CoveredNanos())/float64(r.TotalNanos))
		fmt.Fprintf(&b, "  phase coverage, %d run(s)", r.Runs)
	}
	b.WriteByte('\n')
	return b.String()
}

// formatNanos renders a nanosecond quantity the way time.Duration does,
// rounded to keep columns readable.
func formatNanos(n int64) string {
	d := time.Duration(n)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// BenchMetrics flattens the report into benchmark metric keys, per-run:
// "<phase>-ns/op" for phase wall time and "<phase>-count/op" for phase work
// counts, the shape `go test -bench` reports via b.ReportMetric and
// rpbenchdiff -out records into BENCH_*.json. Runs must be positive.
func (r PhaseReport) BenchMetrics() map[string]float64 {
	if r.Runs <= 0 {
		return nil
	}
	m := make(map[string]float64, 2*len(r.Phases))
	per := float64(r.Runs)
	for _, s := range r.Phases {
		m[s.Phase+"-ns/op"] = float64(s.Nanos) / per
		m[s.Phase+"-count/op"] = float64(s.Count) / per
	}
	return m
}
