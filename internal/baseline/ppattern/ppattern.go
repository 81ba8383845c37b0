// Package ppattern implements p-pattern mining after Ma and Hellerstein,
// "Mining partially periodic event patterns with unknown periods" (ICDE
// 2001), in the form the recurring-pattern paper uses it as a comparator
// (Table 8): the period is supplied by the user, and a pattern is a
// p-pattern iff its number of periodic appearances — inter-arrival times of
// at most per plus the tolerance window w — throughout the whole database
// reaches minSup.
//
// The package implements the *periodic-first* algorithm (the faster of Ma
// and Hellerstein's two): first find the items with enough periodic
// appearances, then grow itemsets level-wise Apriori-style over those items
// using plain support for candidate pruning, and finally keep the itemsets
// whose periodic-appearance count reaches the threshold.
//
// Note: with the gap-based periodicity used here, the periodic-appearance
// count is itself anti-monotone (each periodic gap of a superset contains at
// least one periodic gap of any subset), so the level-wise search loses no
// patterns.
package ppattern

import (
	"fmt"
	"slices"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// Options holds the p-pattern thresholds.
type Options struct {
	// Per is the period: an inter-arrival time counts as a periodic
	// appearance iff it is at most Per+Window.
	Per int64
	// Window is Ma and Hellerstein's time tolerance w.
	Window int64
	// MinSup is the minimum number of periodic appearances a pattern must
	// have throughout the database.
	MinSup int
	// MaxLen, when positive, bounds the pattern length.
	MaxLen int
	// Limit, when positive, stops the search after that many patterns and
	// marks the result truncated. Low minSup values make the p-pattern set
	// explode combinatorially (the phenomenon the recurring-pattern paper's
	// Table 8 documents), so unattended runs should set a ceiling.
	Limit int
}

// Validate reports the first violated constraint.
func (o Options) Validate() error {
	if o.Per <= 0 {
		return fmt.Errorf("ppattern: Per must be positive, got %d", o.Per)
	}
	if o.Window < 0 {
		return fmt.Errorf("ppattern: Window must be non-negative, got %d", o.Window)
	}
	if o.MinSup <= 0 {
		return fmt.Errorf("ppattern: MinSup must be positive, got %d", o.MinSup)
	}
	if o.MaxLen < 0 {
		return fmt.Errorf("ppattern: MaxLen must be non-negative, got %d", o.MaxLen)
	}
	return nil
}

// Pattern is a p-pattern: items, support, and the number of periodic
// appearances that qualified it.
type Pattern struct {
	Items    []tsdb.ItemID // sorted ascending
	Support  int
	Periodic int // periodic appearances (inter-arrival times within per+w)
}

// Result is the output of a mining run, canonically ordered.
type Result struct {
	Patterns []Pattern
	// Truncated reports that Options.Limit stopped the search early; the
	// pattern count is then a lower bound.
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

// Mine discovers all p-patterns of db under o with the periodic-first
// algorithm.
func Mine(db *tsdb.DB, o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	bound := o.Per + o.Window

	// Phase 1: periodic items.
	items := db.VerticalBySupport(func(ts []int64) bool {
		return core.PeriodicAppearances(ts, bound) >= o.MinSup
	})

	// Phase 2+3: grow itemsets over the periodic items; candidates are kept
	// alive by support (a p-pattern trivially has support > minSup periodic
	// gaps), and emitted when their periodic-appearance count qualifies.
	items.Walk(o.MaxLen, func(prefix []tsdb.ItemID, ts []int64) bool {
		if res.Truncated {
			return false
		}
		p := core.PeriodicAppearances(ts, bound)
		if p < o.MinSup {
			// Periodic appearances are anti-monotone for gap periodicity, so
			// no superset can qualify either.
			return false
		}
		res.Patterns = append(res.Patterns, Pattern{Items: tsdb.SortedItems(prefix), Support: len(ts), Periodic: p})
		res.Truncated = o.Limit > 0 && len(res.Patterns) >= o.Limit
		return !res.Truncated
	}, func(ts []int64) bool {
		return len(ts) > o.MinSup // need minSup inter-arrival times
	})

	slices.SortFunc(res.Patterns, func(a, b Pattern) int {
		return tsdb.CompareItemsets(a.Items, b.Items)
	})
	return res, nil
}
