package core

import (
	"slices"

	"github.com/recurpat/rp/internal/tsdb"
)

// MineVertical discovers the same recurring patterns as Mine using a
// vertical (Eclat-style) depth-first search over ts-lists instead of the
// RP-tree. Extensions are generated by intersecting sorted timestamp lists
// and pruned with the same Erec bound; because candidacy is anti-monotone
// (paper Property 2), pruning an extension safely removes its whole subtree.
//
// This miner exists as an independent implementation of the model for
// cross-validation and as the comparison point of the tree-vs-vertical
// ablation benchmark. It honours the same Options as Mine.
func MineVertical(db *tsdb.DB, o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	list := BuildRPList(db, o)
	if o.CollectStats {
		res.Stats.CandidateItems = len(list.Candidates)
	}
	if len(list.Candidates) == 0 {
		return res, nil
	}

	all := db.ItemTSLists()
	// Depth-first order: support-descending like the RP-list, so the two
	// miners explore comparable prefixes.
	v := &verticalMiner{o: o, res: res}
	v.items = make([]tsdb.ItemID, len(list.Candidates))
	v.lists = make([][]int64, len(list.Candidates))
	for i, e := range list.Candidates {
		v.items[i] = e.Item
		v.lists[i] = all[e.Item]
	}

	for i := range v.items {
		v.dfs([]tsdb.ItemID{v.items[i]}, v.lists[i], i, 1)
	}
	res.Canonicalize()
	return res, nil
}

type verticalMiner struct {
	o     Options
	res   *Result
	items []tsdb.ItemID // exploration order, support-descending
	lists [][]int64     // full ts-list per exploration item
}

// dfs evaluates the pattern identified by prefix (with timestamp list ts)
// and tries every extension by an item later in the exploration order.
func (v *verticalMiner) dfs(prefix []tsdb.ItemID, ts []int64, idx int, depth int) {
	if v.o.CollectStats {
		if depth > v.res.Stats.MaxDepth {
			v.res.Stats.MaxDepth = depth
		}
		v.res.Stats.PatternsExamined++
	}
	rec, ipi := Recurrence(ts, v.o.Per, v.o.MinPS)
	if rec >= v.o.MinRec {
		items := make([]tsdb.ItemID, len(prefix))
		copy(items, prefix)
		slices.Sort(items)
		v.res.Patterns = append(v.res.Patterns, Pattern{
			Items:      items,
			Support:    len(ts),
			Recurrence: rec,
			Intervals:  ipi,
		})
	}
	if v.o.MaxLen > 0 && len(prefix) >= v.o.MaxLen {
		return
	}
	n := len(prefix)
	for j := idx + 1; j < len(v.items); j++ {
		ext := IntersectTS(nil, ts, v.lists[j])
		if len(ext) == 0 {
			continue
		}
		if v.o.erecBound(len(ext)) < v.o.MinRec || !v.o.DisableErecPruning && Erec(ext, v.o.Per, v.o.MinPS) < v.o.MinRec {
			if v.o.CollectStats {
				v.res.Stats.PatternsPruned++
			}
			continue
		}
		v.dfs(append(prefix[:n:n], v.items[j]), ext, j, depth+1)
	}
}
