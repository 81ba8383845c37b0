package ext

import (
	"fmt"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// ShiftOptions extends the recurring pattern thresholds with a phase-shift
// tolerance: when a pattern's periodic appearance pauses and resumes with a
// time offset (a phase shift), the strict model splits its interval in two.
// With a tolerance, two periodic runs separated by a silent gap of at most
// ShiftTolerance are treated as one interval whose periodic support is the
// sum of the runs'.
type ShiftOptions struct {
	core.Options
	// ShiftTolerance is the largest silent gap (in timestamp units) bridged
	// between two periodic runs. Values at or below Per change nothing.
	ShiftTolerance int64
}

// Validate reports the first violated constraint.
func (o ShiftOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.ShiftTolerance < 0 {
		return fmt.Errorf("ext: ShiftTolerance must be non-negative, got %d", o.ShiftTolerance)
	}
	return nil
}

func (o ShiftOptions) bridge() int64 {
	if o.ShiftTolerance > o.Per {
		return o.ShiftTolerance
	}
	return o.Per
}

// ShiftRecurrence computes recurrence with phase-shift bridging: the strict
// periodic runs (gaps <= Per) are computed first, adjacent runs separated by
// at most the tolerance are merged, and the merged intervals are filtered by
// MinPS.
func ShiftRecurrence(ts []int64, o ShiftOptions) (rec int, ipi []core.Interval) {
	runs := core.Intervals(ts, o.Per)
	merged := MergeIntervals(runs, o.bridge())
	for _, iv := range merged {
		if iv.PS >= o.MinPS {
			ipi = append(ipi, iv)
			rec++
		}
	}
	return rec, ipi
}

// MergeIntervals coalesces intervals whose separating gap (next.Start -
// prev.End) is at most tol, summing their periodic supports. The input must
// be in time order, as produced by core.Intervals.
func MergeIntervals(ivs []core.Interval, tol int64) []core.Interval {
	if len(ivs) == 0 {
		return nil
	}
	out := []core.Interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start-last.End <= tol {
			last.End = iv.End
			last.PS += iv.PS
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// MineShifted discovers all patterns whose phase-shift-tolerant recurrence
// reaches MinRec. Pruning mirrors MineNoisy: merged intervals lie inside
// runs of the bridged period, so Erec at the bridge distance bounds the
// shifted recurrence of a pattern and its supersets.
func MineShifted(db *tsdb.DB, o ShiftOptions) (*core.Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	bridge := o.bridge()
	res := &core.Result{}
	candidate := func(ts []int64) bool { return core.Erec(ts, bridge, o.MinPS) >= o.MinRec }
	db.VerticalBySupport(candidate).Walk(o.MaxLen, func(items []tsdb.ItemID, ts []int64) bool {
		if rec, ipi := ShiftRecurrence(ts, o); rec >= o.MinRec {
			res.Patterns = append(res.Patterns, core.Pattern{
				Items: tsdb.SortedItems(items), Support: len(ts), Recurrence: rec, Intervals: ipi,
			})
		}
		return true
	}, candidate)
	res.Canonicalize()
	return res, nil
}
