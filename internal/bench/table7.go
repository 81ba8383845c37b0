package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
)

// Table7Row is one row of the paper's Table 7: RP-growth runtime in seconds
// for a dataset and minPS value at every (minRec, per) combination.
// Seconds[i][j] corresponds to minRec = paperMinRecs[i], per = paperPers[j].
type Table7Row struct {
	Dataset      string
	MinPSPercent float64
	Seconds      [3][3]float64
}

// Table7 regenerates the paper's Table 7 for one dataset: a full timed
// mining run per cell (unlike Table 5, runtimes cannot be shared across
// minRec values, since minRec drives the pruning).
func Table7(d *Dataset) ([]Table7Row, error) {
	rows, _, err := table7(d, false)
	return rows, err
}

// Table7Traced is Table7 with phase tracing on: alongside the paper-layout
// rows it returns one report-shaped Benchmark per grid cell whose metrics
// carry the cell's total runtime and the tracer's per-phase attribution,
// the raw material of rpbench -json.
func Table7Traced(d *Dataset) ([]Table7Row, []Benchmark, error) {
	return table7(d, true)
}

func table7(d *Dataset, traced bool) ([]Table7Row, []Benchmark, error) {
	rows := make([]Table7Row, len(d.MinPSPercents))
	var bms []Benchmark
	for i, pct := range d.MinPSPercents {
		rows[i] = Table7Row{Dataset: d.Name, MinPSPercent: pct}
		minPS := core.MinPSFromPercent(d.DB, pct)
		for k, minRec := range paperMinRecs {
			for j, per := range d.Pers {
				o := core.Options{Per: per, MinPS: minPS, MinRec: minRec}
				if traced {
					o.Trace = obs.NewTrace()
				}
				start := time.Now() //rpvet:allow determinism — Table 7 measures runtime
				if _, err := core.Mine(d.DB, o); err != nil {
					return nil, nil, err
				}
				elapsed := time.Since(start)
				rows[i].Seconds[k][j] = elapsed.Seconds()
				if !traced {
					continue
				}
				metrics := o.Trace.Report().BenchMetrics()
				if metrics == nil {
					metrics = map[string]float64{}
				}
				metrics["ns/op"] = float64(elapsed.Nanoseconds())
				bms = append(bms, Benchmark{
					Name:       fmt.Sprintf("Table7/%s/minPS=%g%%/rec=%d/per=%d", d.Name, pct, minRec, per),
					Iterations: 1,
					Metrics:    metrics,
				})
			}
		}
	}
	return rows, bms, nil
}

// FormatTable7 renders Table 7 rows in the paper's layout.
func FormatTable7(rows []Table7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-7s", "Dataset", "minPS")
	for _, minRec := range paperMinRecs {
		for _, per := range paperPers {
			fmt.Fprintf(&b, " rec=%d,per=%-5d", minRec, per)
		}
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %5.2f%%", r.Dataset, r.MinPSPercent)
		for k := range paperMinRecs {
			for j := range paperPers {
				fmt.Fprintf(&b, " %14.2fs", r.Seconds[k][j])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
