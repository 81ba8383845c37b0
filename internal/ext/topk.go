package ext

import (
	"container/heap"
	"fmt"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// TopK mines the k patterns with the highest recurrence under the given
// period and minimum periodic support, without requiring the user to guess
// minRec (the usual threshold-free variant of a pattern mining problem).
// Ties are broken by support (higher first), then canonical item order.
//
// The search is a vertical DFS whose pruning threshold rises as the result
// heap fills: once k patterns are held, any extension whose Erec bound
// cannot beat the current k-th recurrence is discarded — the same bound that
// makes minRec pruning sound makes the dynamic threshold sound.
func TopK(db *tsdb.DB, per int64, minPS, k int) ([]core.Pattern, error) {
	if per <= 0 {
		return nil, fmt.Errorf("ext: per must be positive, got %d", per)
	}
	if minPS <= 0 {
		return nil, fmt.Errorf("ext: minPS must be positive, got %d", minPS)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ext: k must be positive, got %d", k)
	}

	h := &patternHeap{}
	threshold := func() int {
		if h.Len() < k {
			return 1
		}
		return (*h)[0].Recurrence
	}
	beatsThreshold := func(ts []int64) bool { return core.Erec(ts, per, minPS) >= threshold() }

	roots := db.VerticalBySupport(func(ts []int64) bool { return core.Erec(ts, per, minPS) >= 1 })
	roots.Walk(0, func(prefix []tsdb.ItemID, ts []int64) bool {
		// Single items skip extend, so they meet the rising threshold here.
		if len(prefix) == 1 && !beatsThreshold(ts) {
			return false
		}
		rec, ipi := core.Recurrence(ts, per, minPS)
		if rec >= threshold() {
			p := core.Pattern{Items: tsdb.SortedItems(prefix), Support: len(ts), Recurrence: rec, Intervals: ipi}
			if h.Len() < k {
				heap.Push(h, p)
			} else if better(p, (*h)[0]) {
				(*h)[0] = p
				heap.Fix(h, 0)
			}
		}
		return true
	}, beatsThreshold)

	out := make([]core.Pattern, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(core.Pattern)
	}
	return out, nil
}

// better reports whether a outranks b in the top-k order.
func better(a, b core.Pattern) bool {
	if a.Recurrence != b.Recurrence {
		return a.Recurrence > b.Recurrence
	}
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	return lessItems(a.Items, b.Items)
}

func lessItems(a, b []tsdb.ItemID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// patternHeap is a min-heap under the top-k order, so the weakest held
// pattern sits at the root.
type patternHeap []core.Pattern

func (h patternHeap) Len() int            { return len(h) }
func (h patternHeap) Less(i, j int) bool  { return better(h[j], h[i]) }
func (h patternHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *patternHeap) Push(x interface{}) { *h = append(*h, x.(core.Pattern)) }
func (h *patternHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
