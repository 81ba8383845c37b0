package core

import (
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

	// Depth-first order: the RP-list's, so the two miners explore
	// comparable prefixes.
	all := db.ItemTSLists()
	v := tsdb.Vertical{
		Items: make([]tsdb.ItemID, len(list.Candidates)),
		Lists: make([][]int64, len(list.Candidates)),
	}
	for i, e := range list.Candidates {
		v.Items[i] = e.Item
		v.Lists[i] = all[e.Item]
	}

	visit := func(items []tsdb.ItemID, ts []int64) bool {
		if o.CollectStats {
			res.Stats.MaxDepth = max(res.Stats.MaxDepth, len(items))
			res.Stats.PatternsExamined++
		}
		if rec, ipi := Recurrence(ts, o.Per, o.MinPS); rec >= o.MinRec {
			res.Patterns = append(res.Patterns, Pattern{
				Items:      tsdb.SortedItems(items),
				Support:    len(ts),
				Recurrence: rec,
				Intervals:  ipi,
			})
		}
		return true
	}
	extend := func(ts []int64) bool {
		if o.erecBound(len(ts)) < o.MinRec || !o.DisableErecPruning && Erec(ts, o.Per, o.MinPS) < o.MinRec {
			if o.CollectStats {
				res.Stats.PatternsPruned++
			}
			return false
		}
		return true
	}
	v.Walk(o.MaxLen, visit, extend)
	res.Canonicalize()
	return res, nil
}
