package ext

import (
	"slices"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// Summarization reduces a mining result to its non-redundant core. A
// recurring pattern is
//
//   - maximal if no proper superset of it is also in the result;
//   - closed if no proper superset in the result has the same support
//     (equal support means the superset occurs in exactly the same
//     transactions, so the subset adds no information).
//
// Both filters preserve the patterns' measures; Maximal is the stronger
// reduction, Closed is lossless with respect to supports.

// Maximal returns the maximal patterns of a canonicalized result, in
// canonical order.
func Maximal(res *core.Result) []core.Pattern {
	return filterBySuperset(res, func(sub, super core.Pattern) bool {
		return true // any proper superset suppresses the subset
	})
}

// Closed returns the closed patterns of a canonicalized result, in
// canonical order.
func Closed(res *core.Result) []core.Pattern {
	return filterBySuperset(res, func(sub, super core.Pattern) bool {
		return super.Support == sub.Support
	})
}

// filterBySuperset keeps every pattern that has no proper superset in the
// result for which suppresses(sub, super) holds. The result must be
// canonicalized (shorter patterns first).
func filterBySuperset(res *core.Result, suppresses func(sub, super core.Pattern) bool) []core.Pattern {
	// Index patterns by their first item to avoid the full quadratic scan;
	// a superset necessarily contains the subset's first item.
	byItem := make(map[tsdb.ItemID][]core.Pattern)
	for _, p := range res.Patterns {
		for _, it := range p.Items {
			byItem[it] = append(byItem[it], p)
		}
	}
	var out []core.Pattern
	for _, p := range res.Patterns {
		suppressed := false
		for _, q := range byItem[p.Items[0]] {
			if len(q.Items) <= len(p.Items) {
				continue
			}
			if isSubset(p.Items, q.Items) && suppresses(p, q) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b core.Pattern) int { return tsdb.CompareItemsets(a.Items, b.Items) })
	return out
}

func isSubset(a, b []tsdb.ItemID) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
