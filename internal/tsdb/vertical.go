package tsdb

import (
	"cmp"
	"slices"
)

// Vertical is a database in vertical (Eclat) layout: the items a miner
// explores, in exploration order, each with its full ts-list.
type Vertical struct {
	Items []ItemID
	Lists [][]int64 // Lists[i] is the ts-list of Items[i]
}

// VerticalBySupport keeps the items whose ts-list passes keep and orders
// them by support, descending, ties broken by ItemID.
func (db *DB) VerticalBySupport(keep func(ts []int64) bool) Vertical {
	all := db.ItemTSLists()
	var items []ItemID
	for id, ts := range all {
		if keep(ts) {
			items = append(items, ItemID(id))
		}
	}
	slices.SortFunc(items, func(a, b ItemID) int {
		if len(all[a]) != len(all[b]) {
			return len(all[b]) - len(all[a])
		}
		return cmp.Compare(a, b)
	})
	v := Vertical{Items: items, Lists: make([][]int64, len(items))}
	for i, id := range items {
		v.Lists[i] = all[id]
	}
	return v
}

// Walk runs the depth-first itemset search shared by the vertical miners.
// It starts from each single item in order. visit receives the itemset, in
// exploration order, with its ts-list, and reports whether to grow it; the
// items slice is reused and is only valid during the call. An itemset
// shorter than maxLen (0 means no limit) is extended by each later item
// whose intersection with it is non-empty and passes extend, and the
// extension is visited before the next item is tried. Single items are
// never passed to extend. With an anti-monotone extend, refusing an
// extension prunes its whole subtree soundly.
func (v Vertical) Walk(maxLen int, visit func(items []ItemID, ts []int64) (grow bool), extend func(ts []int64) bool) {
	var items []ItemID
	var grow func(last int, ts []int64)
	grow = func(last int, ts []int64) {
		if !visit(items, ts) || maxLen > 0 && len(items) >= maxLen {
			return
		}
		for j := last + 1; j < len(v.Items); j++ {
			ext := IntersectTS(nil, ts, v.Lists[j])
			if len(ext) == 0 || !extend(ext) {
				continue
			}
			items = append(items, v.Items[j])
			grow(j, ext)
			items = items[:len(items)-1]
		}
	}
	for i, id := range v.Items {
		items = append(items[:0], id)
		grow(i, v.Lists[i])
	}
}

// IntersectTS intersects two sorted timestamp lists, appending the result to
// dst (which may be nil).
func IntersectTS(dst, a, b []int64) []int64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
