package core

import (
	"fmt"

	"github.com/recurpat/rp/internal/tsdb"
)

// bruteForceMaxItems caps the lattice size MineBruteForce will enumerate;
// 2^20 subsets of 20 items is the largest search that stays comfortably in
// test budgets.
const bruteForceMaxItems = 20

// MineBruteForce enumerates every non-empty itemset over the items that
// occur in db, computes its timestamp list by direct intersection, and
// keeps the recurring ones. No pruning beyond empty ts-lists is applied, so
// the output is ground truth for the model regardless of any property the
// faster miners rely on. Intended for tests; it refuses databases with more
// than 20 distinct occurring items.
func MineBruteForce(db *tsdb.DB, o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	all := db.ItemTSLists()
	var items []tsdb.ItemID
	for id, ts := range all {
		if len(ts) > 0 {
			items = append(items, tsdb.ItemID(id))
		}
	}
	if len(items) > bruteForceMaxItems {
		return nil, fmt.Errorf("core: brute force refuses %d items (max %d)", len(items), bruteForceMaxItems)
	}
	res := &Result{}
	var grow func(start int, prefix []tsdb.ItemID, ts []int64)
	grow = func(start int, prefix []tsdb.ItemID, ts []int64) {
		for i := start; i < len(items); i++ {
			var ext []int64
			if len(prefix) == 0 {
				ext = all[items[i]]
			} else {
				ext = tsdb.IntersectTS(nil, ts, all[items[i]])
			}
			if len(ext) == 0 {
				continue
			}
			next := append(prefix[:len(prefix):len(prefix)], items[i])
			if o.MaxLen == 0 || len(next) <= o.MaxLen {
				rec, ipi := Recurrence(ext, o.Per, o.MinPS)
				if rec >= o.MinRec {
					res.Patterns = append(res.Patterns, Pattern{
						Items:      tsdb.SortedItems(next),
						Support:    len(ext),
						Recurrence: rec,
						Intervals:  ipi,
					})
				}
				if o.MaxLen == 0 || len(next) < o.MaxLen {
					grow(i+1, next, ext)
				}
			}
		}
	}
	grow(0, nil, nil)
	res.Canonicalize()
	return res, nil
}
