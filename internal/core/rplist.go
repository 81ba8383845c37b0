package core

import (
	"cmp"
	"slices"

	"github.com/recurpat/rp/internal/tsdb"
)

// RPList is the candidate item list of the RP-tree (paper Section 4.2.1):
// each distinct item with its support and estimated maximum recurrence, the
// items that survive pruning sorted in support-descending order.
type RPList struct {
	// Candidates holds the surviving items in support-descending order
	// (ties broken by ItemID for determinism). This is the item order of
	// the RP-tree, Figure 4(f).
	Candidates []RPListEntry

	// Rank maps an ItemID to its position in Candidates, or -1 when the
	// item was pruned.
	Rank []int

	// ipi holds each candidate's interesting intervals (paper Definition
	// 7), by rank: the scan closes every periodic run anyway, so the
	// recurrence of each single-item pattern comes with it.
	ipi [][]Interval

	totalItems int // distinct items seen before pruning
}

// RPListEntry is one row of the RP-list: item, support and Erec.
type RPListEntry struct {
	Item    tsdb.ItemID
	Support int
	Erec    int
}

// itemState is the per-item running state of Algorithm 1: support s,
// accumulated erec, timestamp of the item's last appearance (idl) and the
// periodic support of the run currently being extended (ps).
type itemState struct {
	sup  int
	erec int
	idl  int64
	ps   int
	seen bool
}

// scanState is itemState plus what the RP-list scan keeps to give each
// candidate its interesting intervals: the start of the current run and the
// intervals closed so far.
type scanState struct {
	itemState
	start int64
	ipi   []Interval
}

// closeRun closes the current run: it contributes floor(ps/minPS) to erec
// and, when it is interesting, its interval to ipi.
func (st *scanState) closeRun(minPS int) {
	st.erec += st.ps / minPS
	if st.ps >= minPS {
		st.ipi = append(st.ipi, Interval{Start: st.start, End: st.idl, PS: st.ps})
	}
}

// BuildRPList performs the first database scan of RP-growth (Algorithm 1):
// it computes every item's support and estimated maximum recurrence in a
// single streaming pass, prunes items with Erec < minRec, and sorts the
// survivors in support-descending order. The runs the scan closes also
// give every candidate its interesting intervals, which the RP-tree's ranks
// carry into mining.
//
// With o.DisableErecPruning set, only items that could never fill a single
// interesting interval (support < MinPS) are pruned.
func BuildRPList(db *tsdb.DB, o Options) *RPList {
	states := make([]scanState, db.Dict.Len())
	for _, tr := range db.Trans {
		tscur := tr.TS
		for _, item := range tr.Items {
			st := &states[item]
			if !st.seen {
				// First occurrence: initialize s, erec, idl, ps
				// (Algorithm 1 lines 3-5).
				st.seen = true
				st.sup = 1
				st.erec = 0
				st.idl = tscur
				st.ps = 1
				st.start = tscur
				continue
			}
			if tscur-st.idl <= o.Per {
				// Periodic reappearance: extend the current run
				// (lines 7-8).
				st.sup++
				st.ps++
				st.idl = tscur
			} else {
				// Aperiodic gap: close the run, contribute
				// floor(ps/minPS) to erec, start a new run (lines 10-11).
				st.closeRun(o.MinPS)
				st.sup++
				st.ps = 1
				st.idl = tscur
				st.start = tscur
			}
		}
	}

	list := &RPList{Rank: make([]int, db.Dict.Len())}
	for i := range list.Rank {
		list.Rank[i] = -1
	}
	for item := range states {
		st := &states[item]
		if !st.seen {
			continue
		}
		list.totalItems++
		// Close the final run (Algorithm 1 line 15).
		st.closeRun(o.MinPS)
		keep := st.erec >= o.MinRec
		if o.DisableErecPruning {
			keep = st.sup >= o.MinPS
		}
		if keep {
			list.Candidates = append(list.Candidates, RPListEntry{
				Item:    tsdb.ItemID(item),
				Support: st.sup,
				Erec:    st.erec,
			})
		}
	}
	slices.SortFunc(list.Candidates, func(a, b RPListEntry) int {
		if o.ItemOrder == SupportDescending && a.Support != b.Support {
			return b.Support - a.Support
		}
		return cmp.Compare(a.Item, b.Item)
	})
	list.ipi = make([][]Interval, len(list.Candidates))
	for rank, e := range list.Candidates {
		list.Rank[e.Item] = rank
		list.ipi[rank] = states[e.Item].ipi
	}
	return list
}

// TotalItems reports the number of distinct items seen before pruning.
func (l *RPList) TotalItems() int { return l.totalItems }

// IsCandidate reports whether item survived pruning.
func (l *RPList) IsCandidate(item tsdb.ItemID) bool {
	return int(item) < len(l.Rank) && l.Rank[item] >= 0
}

// Project filters and reorders a transaction's items into the RP-list's
// support-descending candidate order (the "candidate item projection" CI(t)
// of Property 3). The result is appended to dst.
func (l *RPList) Project(dst []tsdb.ItemID, items []tsdb.ItemID) []tsdb.ItemID {
	start := len(dst)
	for _, it := range items {
		if l.Rank[it] >= 0 {
			dst = append(dst, it)
		}
	}
	proj := dst[start:]
	slices.SortFunc(proj, func(a, b tsdb.ItemID) int { return l.Rank[a] - l.Rank[b] })
	return dst
}
