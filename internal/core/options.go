package core

import (
	"fmt"

	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// Options carries the three user-defined thresholds of the recurring pattern
// model (paper Definition 10) plus execution knobs.
type Options struct {
	// Per is the period threshold: an inter-arrival time is periodic iff it
	// is at most Per (Definition 4). Must be positive.
	Per int64

	// MinPS is the minimum periodic support: a periodic interval is
	// interesting iff its periodic support reaches MinPS (Definition 7).
	// Must be positive.
	MinPS int

	// MinRec is the minimum recurrence: a pattern is recurring iff it has at
	// least MinRec interesting periodic intervals (Definition 9). Must be
	// positive.
	MinRec int

	// MaxLen, when positive, limits mining to patterns of at most MaxLen
	// items. Zero means unlimited.
	MaxLen int

	// Parallelism is the number of workers that mine suffix-item subtrees
	// concurrently. Every run mines through the same worker pool, with at
	// least one worker, so zero and one both mean a single worker. The
	// pool hands out suffix items in the paper's discovery order, and the
	// results are identical at every setting.
	Parallelism int

	// CollectStats, when set, fills the Stats field of the mining Result
	// with search-space counters (used by the ablation benchmarks).
	CollectStats bool

	// DisableErecPruning turns off the Erec candidate bound so that the
	// miners fall back to support-only pruning (a pattern is only skipped
	// when its timestamp list is empty or shorter than MinPS). Exists solely
	// for the pruning ablation; output is unchanged.
	DisableErecPruning bool

	// ItemOrder selects the RP-tree item ordering. The paper's
	// support-descending order (the default) maximizes prefix sharing;
	// lexicographic order exists for the tree-compactness ablation. Output
	// is identical either way.
	ItemOrder ItemOrder

	// Trace, when non-nil, receives per-phase wall time and work counts
	// for the run: the initial scan, tree construction, per-item subtree
	// mining, ts-list merges and Erec prunes. Observations are batched
	// per worker and flushed at subtree-task granularity, so tracing adds
	// no synchronization to the per-node hot loops; a nil Trace costs a
	// pointer check. Output is identical either way.
	Trace *obs.Trace
}

// ItemOrder enumerates RP-tree item orderings.
type ItemOrder int

const (
	// SupportDescending arranges items most-frequent-first (paper Section
	// 4.2.1, "to facilitate a high degree of compactness").
	SupportDescending ItemOrder = iota
	// Lexicographic arranges items by their ItemID.
	Lexicographic
)

// Validate reports the first violated constraint.
func (o Options) Validate() error {
	if o.Per <= 0 {
		return fmt.Errorf("core: Per must be positive, got %d", o.Per)
	}
	if o.MinPS <= 0 {
		return fmt.Errorf("core: MinPS must be positive, got %d", o.MinPS)
	}
	if o.MinRec <= 0 {
		return fmt.Errorf("core: MinRec must be positive, got %d", o.MinRec)
	}
	if o.MaxLen < 0 {
		return fmt.Errorf("core: MaxLen must be non-negative, got %d", o.MaxLen)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism must be non-negative, got %d", o.Parallelism)
	}
	return nil
}

// MinPSFromPercent converts a percentage of |TDB| into an absolute minimum
// periodic support, matching how the paper states minPS for its datasets
// (e.g. 0.1% of T10I4D100K = 100). The result is at least 1.
func MinPSFromPercent(db *tsdb.DB, percent float64) int {
	return MinPSForLen(db.Len(), percent)
}

// MinPSForLen is MinPSFromPercent against a database size rather than a
// database, for callers (the wire-API converters) that resolve thresholds
// without holding the DB.
func MinPSForLen(n int, percent float64) int {
	ps := int(percent / 100 * float64(n))
	if ps < 1 {
		ps = 1
	}
	return ps
}

// erecBound bounds the Erec candidate check for any timestamp list of n
// occurrences, so a caller can reject a candidate from its support before
// building its union. Erec sums floor(ps_i / MinPS) over periodic intervals
// whose ps_i sum to n, which is at most floor(n / MinPS). With pruning
// disabled the check degenerates to "might recur if there are at least
// MinPS occurrences", which only discards patterns that could never form a
// single interesting interval; that depends on n alone, so the bound is the
// whole check.
func (o Options) erecBound(n int) int {
	if o.DisableErecPruning {
		if n >= o.MinPS {
			return o.MinRec // always passes the candidate check
		}
		return 0
	}
	return n / o.MinPS
}
