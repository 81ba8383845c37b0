// Package ext implements the recurring pattern models the paper's Section 6
// leaves as future work: noise-tolerant recurrence, phase-shift tolerance
// and top-k recurring pattern mining. Each runs on tsdb.Vertical.Walk.
package ext

import (
	"fmt"
	"math"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// NoiseOptions extends the recurring pattern thresholds with a bounded
// noise budget: within one periodic interval, up to MaxViolations
// inter-arrival times may exceed Per, provided each stays within
// NoiseFactor*Per. This models measurement dropouts — an otherwise periodic
// pattern missing a handful of beats keeps its interval instead of having
// it split.
type NoiseOptions struct {
	core.Options
	// MaxViolations is the number of over-period gaps tolerated per
	// interval. Zero reproduces the strict model exactly.
	MaxViolations int
	// NoiseFactor bounds how large a tolerated gap may be, as a multiple of
	// Per. Values below 1 are treated as 1 (no tolerance).
	NoiseFactor float64
}

// Validate reports the first violated constraint.
func (o NoiseOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.MaxViolations < 0 {
		return fmt.Errorf("ext: MaxViolations must be non-negative, got %d", o.MaxViolations)
	}
	// relaxedPer converts NoiseFactor*Per to int64; a NaN, infinite or
	// out-of-range product would convert to garbage and prune everything.
	if math.IsNaN(o.NoiseFactor) || math.IsInf(o.NoiseFactor, 0) {
		return fmt.Errorf("ext: NoiseFactor must be finite, got %v", o.NoiseFactor)
	}
	if o.NoiseFactor*float64(o.Per) >= math.MaxInt64 {
		return fmt.Errorf("ext: NoiseFactor*Per must fit in int64, got %v*%d", o.NoiseFactor, o.Per)
	}
	return nil
}

// relaxedPer returns the largest gap a noisy interval may contain.
func (o NoiseOptions) relaxedPer() int64 {
	if o.NoiseFactor <= 1 || o.MaxViolations == 0 {
		return o.Per
	}
	return int64(o.NoiseFactor * float64(o.Per))
}

// NoisyRecurrence computes the noise-tolerant recurrence of a sorted
// timestamp list: periodic intervals may absorb up to MaxViolations gaps in
// (Per, NoiseFactor*Per]; a gap beyond the relaxed bound, or one more
// violation than the budget allows, closes the interval (and resets the
// budget).
func NoisyRecurrence(ts []int64, o NoiseOptions) (rec int, ipi []core.Interval) {
	if len(ts) == 0 {
		return 0, nil
	}
	relaxed := o.relaxedPer()
	start := ts[0]
	ps := 1
	viol := 0
	flush := func(end int64) {
		if ps >= o.MinPS {
			ipi = append(ipi, core.Interval{Start: start, End: end, PS: ps})
			rec++
		}
	}
	for i := 1; i < len(ts); i++ {
		gap := ts[i] - ts[i-1]
		switch {
		case gap <= o.Per:
			ps++
		case gap <= relaxed && viol < o.MaxViolations:
			viol++
			ps++
		default:
			flush(ts[i-1])
			start = ts[i]
			ps = 1
			viol = 0
		}
	}
	flush(ts[len(ts)-1])
	return rec, ipi
}

// MineNoisy discovers all patterns whose noise-tolerant recurrence reaches
// MinRec. Pruning uses the Erec bound evaluated at the relaxed period: every
// noisy interesting interval lies inside a relaxed-period run, and a run
// containing m disjoint noisy intervals has periodic support at least
// m*MinPS, so Erec at the relaxed period upper-bounds the noisy recurrence
// of the pattern and (by anti-monotonicity) of all its supersets.
func MineNoisy(db *tsdb.DB, o NoiseOptions) (*core.Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	relaxed := o.relaxedPer()
	res := &core.Result{}
	candidate := func(ts []int64) bool { return core.Erec(ts, relaxed, o.MinPS) >= o.MinRec }
	db.VerticalBySupport(candidate).Walk(o.MaxLen, func(items []tsdb.ItemID, ts []int64) bool {
		if rec, ipi := NoisyRecurrence(ts, o); rec >= o.MinRec {
			res.Patterns = append(res.Patterns, core.Pattern{
				Items: tsdb.SortedItems(items), Support: len(ts), Recurrence: rec, Intervals: ipi,
			})
		}
		return true
	}, candidate)
	res.Canonicalize()
	return res, nil
}
