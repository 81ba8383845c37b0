package ppattern

import (
	"slices"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// MineAssociationFirst discovers the same p-patterns as Mine using Ma and
// Hellerstein's *association-first* algorithm: first find all frequent
// itemsets (plain support, Apriori-style), then keep those with enough
// periodic appearances. The recurring-pattern paper chose periodic-first
// for its comparison because it is faster; both are provided here so the
// speed claim itself can be benchmarked (see BenchmarkPPatternVariants).
//
// The two algorithms provably return identical pattern sets: a pattern
// with minSup periodic inter-arrival times occurs in at least minSup+1
// transactions, so the support-based lattice of association-first covers
// every p-pattern, and the final filter is the same.
func MineAssociationFirst(db *tsdb.DB, o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	bound := o.Per + o.Window

	// Phase 1: frequent items by support (a p-pattern needs more than
	// minSup occurrences to have minSup periodic gaps).
	frequent := func(ts []int64) bool { return len(ts) > o.MinSup }
	items := db.VerticalBySupport(frequent)

	// Phase 2: grow frequent itemsets by support; Phase 3: filter by
	// periodic appearances at emission time.
	items.Walk(o.MaxLen, func(prefix []tsdb.ItemID, ts []int64) bool {
		if res.Truncated {
			return false
		}
		if p := core.PeriodicAppearances(ts, bound); p >= o.MinSup {
			res.Patterns = append(res.Patterns, Pattern{Items: tsdb.SortedItems(prefix), Support: len(ts), Periodic: p})
			res.Truncated = o.Limit > 0 && len(res.Patterns) >= o.Limit
		}
		return !res.Truncated
	}, frequent)

	slices.SortFunc(res.Patterns, func(a, b Pattern) int {
		return tsdb.CompareItemsets(a.Items, b.Items)
	})
	return res, nil
}
