package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/recurpat/rp/internal/tsdb"
)

// Pattern is a recurring pattern together with the measures the paper
// reports for it (expression (1) in Definition 9): support, recurrence, and
// the interesting periodic intervals with their periodic supports.
type Pattern struct {
	Items      []tsdb.ItemID // sorted ascending
	Support    int
	Recurrence int
	Intervals  []Interval // interesting periodic intervals, in time order
}

// Len reports the number of items in the pattern.
func (p Pattern) Len() int { return len(p.Items) }

// String renders the pattern in the paper's notation using opaque item IDs;
// use Format with a dictionary for names.
func (p Pattern) String() string {
	ids := make([]string, len(p.Items))
	for i, id := range p.Items {
		ids[i] = fmt.Sprint(id)
	}
	return fmt.Sprintf("{%s} [sup=%d rec=%d %s]",
		strings.Join(ids, ","), p.Support, p.Recurrence, formatIntervals(p.Intervals))
}

// Format renders the pattern with item names resolved through dict.
func (p Pattern) Format(dict *tsdb.Dictionary) string {
	names := make([]string, len(p.Items))
	for i, id := range p.Items {
		names[i] = dict.Name(id)
	}
	return fmt.Sprintf("{%s} [sup=%d rec=%d %s]",
		strings.Join(names, ","), p.Support, p.Recurrence, formatIntervals(p.Intervals))
}

func formatIntervals(ipi []Interval) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range ipi {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "{[%d,%d]:%d}", iv.Start, iv.End, iv.PS)
	}
	b.WriteByte('}')
	return b.String()
}

// Result is the output of a mining run.
type Result struct {
	Patterns []Pattern
	Stats    MineStats
}

// MineStats counts work done during mining; populated when
// Options.CollectStats is set. The counters quantify the effect of the Erec
// pruning bound for the ablation study.
type MineStats struct {
	CandidateItems int // items surviving the RP-list scan (Algorithm 1)
	// PatternsExamined counts the patterns whose recurrence was evaluated
	// (getRecurrence), each read from the fold made where the pattern's
	// ts-list was gathered: the RP-list scan or a conditional Erec check.
	PatternsExamined int
	PatternsPruned   int // extensions cut by the Erec bound before evaluation
	// TreeNodes counts the prefix-tree nodes created: the initial tree
	// plus every conditional tree. Each task of a scatter builds its own
	// initial tree, cut after the last rank it owns, so a scatter's sum
	// counts one truncated initial tree per task: at least the full
	// tree's nodes, since every node lies on some task's cut paths.
	TreeNodes int
	MaxDepth  int // deepest recursion reached
}

// Merge folds a partial result of the same mine into r: the shards of a
// scatter, or the per-rank partials of the worker pool. Patterns append
// (the caller canonicalizes once every partial is in); examined, pruned
// and tree-node counts sum, since the partials split the search space;
// CandidateItems and MaxDepth take the maximum, since every partial sees
// the whole candidate list and reports only its own deepest recursion.
func (r *Result) Merge(p *Result) {
	r.Patterns = append(r.Patterns, p.Patterns...)
	r.Stats.PatternsExamined += p.Stats.PatternsExamined
	r.Stats.PatternsPruned += p.Stats.PatternsPruned
	r.Stats.TreeNodes += p.Stats.TreeNodes
	r.Stats.CandidateItems = max(r.Stats.CandidateItems, p.Stats.CandidateItems)
	r.Stats.MaxDepth = max(r.Stats.MaxDepth, p.Stats.MaxDepth)
}

// MaxLen returns the length of the longest pattern in the result (column
// "II" of the paper's Table 8), or zero when empty.
func (r *Result) MaxLen() int {
	max := 0
	for _, p := range r.Patterns {
		if p.Len() > max {
			max = p.Len()
		}
	}
	return max
}

// Canonicalize sorts the result into the canonical order used throughout the
// repository: by pattern length, then lexicographically by item IDs. All
// miners return canonicalized results so they can be compared directly.
func (r *Result) Canonicalize() {
	slices.SortFunc(r.Patterns, func(a, b Pattern) int {
		return tsdb.CompareItemsets(a.Items, b.Items)
	})
}

// Equal reports whether two results contain the same patterns with the same
// measures (intervals included). Both results must be canonicalized.
func (r *Result) Equal(other *Result) bool {
	if len(r.Patterns) != len(other.Patterns) {
		return false
	}
	for i := range r.Patterns {
		if !patternEqual(r.Patterns[i], other.Patterns[i]) {
			return false
		}
	}
	return true
}

func patternEqual(a, b Pattern) bool {
	if a.Support != b.Support || a.Recurrence != b.Recurrence ||
		len(a.Items) != len(b.Items) || len(a.Intervals) != len(b.Intervals) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	for i := range a.Intervals {
		if a.Intervals[i] != b.Intervals[i] {
			return false
		}
	}
	return true
}
