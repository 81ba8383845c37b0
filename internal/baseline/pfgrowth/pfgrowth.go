// Package pfgrowth implements periodic-frequent pattern mining with the
// semantics of PF-growth++ (Kiran and Kitsuregawa, DASFAA 2014, building on
// Tanbeer et al., PAKDD 2009): a pattern is periodic-frequent iff its
// support reaches minSup AND its maximum periodicity — the largest
// inter-arrival time, counting the lead-in gap from the start of the
// database and the lead-out gap to its end — is at most the period
// threshold. This is the "complete cyclic repetitions throughout the
// database" model that the recurring-pattern paper compares against in
// Table 8.
//
// Both measures are anti-monotone (a superset's ts-list is a subset, which
// can only lower support and raise the maximum periodicity), so a plain
// depth-first search over intersected ts-lists mines the complete set.
package pfgrowth

import (
	"fmt"
	"slices"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// Options holds the two thresholds of the periodic-frequent model.
type Options struct {
	// MinSup is the minimum number of transactions a pattern must appear in.
	MinSup int
	// MaxPer is the maximum allowed periodicity: every inter-arrival time of
	// the pattern, including the database-boundary gaps, must be at most
	// MaxPer.
	MaxPer int64
	// MaxLen, when positive, bounds the pattern length.
	MaxLen int
	// Limit, when positive, stops the search after that many patterns and
	// marks the result truncated (dense databases can make the
	// periodic-frequent set explode combinatorially).
	Limit int
}

// Validate reports the first violated constraint.
func (o Options) Validate() error {
	if o.MinSup <= 0 {
		return fmt.Errorf("pfgrowth: MinSup must be positive, got %d", o.MinSup)
	}
	if o.MaxPer <= 0 {
		return fmt.Errorf("pfgrowth: MaxPer must be positive, got %d", o.MaxPer)
	}
	if o.MaxLen < 0 {
		return fmt.Errorf("pfgrowth: MaxLen must be non-negative, got %d", o.MaxLen)
	}
	return nil
}

// Pattern is a periodic-frequent pattern: items, support, and the pattern's
// maximum periodicity.
type Pattern struct {
	Items       []tsdb.ItemID // sorted ascending
	Support     int
	Periodicity int64
}

// Result is the output of a mining run, canonically ordered by pattern
// length then item IDs.
type Result struct {
	Patterns []Pattern
	// Truncated reports that Options.Limit stopped the search early.
	Truncated bool
}

// MaxLen returns the length of the longest pattern found.
func (r *Result) MaxLen() int {
	max := 0
	for _, p := range r.Patterns {
		if len(p.Items) > max {
			max = len(p.Items)
		}
	}
	return max
}

// Mine discovers all periodic-frequent patterns of db under o.
func Mine(db *tsdb.DB, o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	if db.Len() == 0 {
		return res, nil
	}
	first, last := db.Span()
	periodicFrequent := func(ts []int64) bool {
		return len(ts) >= o.MinSup && core.MaxPeriodicity(ts, first, last) <= o.MaxPer
	}
	// Both measures are anti-monotone, so the one test picks the candidate
	// items and prunes every extension.
	db.VerticalBySupport(periodicFrequent).Walk(o.MaxLen, func(items []tsdb.ItemID, ts []int64) bool {
		if res.Truncated {
			return false
		}
		res.Patterns = append(res.Patterns, Pattern{
			Items:       tsdb.SortedItems(items),
			Support:     len(ts),
			Periodicity: core.MaxPeriodicity(ts, first, last),
		})
		res.Truncated = o.Limit > 0 && len(res.Patterns) >= o.Limit
		return !res.Truncated
	}, periodicFrequent)

	slices.SortFunc(res.Patterns, func(a, b Pattern) int {
		return tsdb.CompareItemsets(a.Items, b.Items)
	})
	return res, nil
}
