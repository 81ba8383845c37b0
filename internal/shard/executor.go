package shard

import (
	"context"
	"fmt"
	"time"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// Partial is one shard task's result: the patterns of the owned suffix
// items in canonical order, plus the task's search statistics and mining
// wall time.
type Partial struct {
	Task     Task
	Patterns []core.Pattern
	Stats    core.MineStats
	MineTime time.Duration
	// Phases is the peer's per-phase attribution of the task (remote
	// executors only; a Local task flushes straight into the shared trace).
	Phases []obs.PhaseStat
}

// Executor runs one shard task of a mine. Implementations must honour ctx
// and must verify the task's fingerprint against the database they
// actually mine. db is the coordinator's copy of the database — the Local
// executor mines it directly, remote executors use it only to resolve
// wire patterns back to item IDs.
type Executor interface {
	Execute(ctx context.Context, db *tsdb.DB, o core.Options, t Task) (*Partial, error)
}

// Local mines shard tasks in-process through core.MineShardContext: the
// one-box execution mode (rpmine -shards) and the reference the remote
// mode's equivalence tests pin against.
type Local struct{}

// Execute mines the task's slice of db. The options' Trace is shared with
// the coordinator, so a traced one-box scatter attributes every shard's
// scan/tree-build/mine phases into one report.
func (Local) Execute(ctx context.Context, db *tsdb.DB, o core.Options, t Task) (*Partial, error) {
	if fp := db.Fingerprint(); fp != t.FP {
		return nil, fmt.Errorf("shard: task is for database %016x, holding %016x", t.FP, fp)
	}
	start := obs.Now()
	res, err := core.MineShardContext(ctx, db, o, t.Spec())
	if err != nil {
		return nil, err
	}
	return &Partial{
		Task:     t,
		Patterns: res.Patterns,
		Stats:    res.Stats,
		MineTime: time.Duration(obs.Since(start)),
	}, nil
}

// Reduce merges shard partials into one canonical result — the gather half
// of a scatter. Patterns concatenate and canonicalize: the tasks partition
// the pattern set by deepest-ranked item and canonical order is total on
// unique item sets, so the output is byte-identical to a single-box mine
// whatever the shard count or completion order.
//
// Stats merge per counter semantics: examined/pruned sum exactly (the
// search spaces partition); CandidateItems and MaxDepth take the maximum
// (each shard sees the full candidate list and its own deepest recursion);
// TreeNodes sums, which overcounts the initial tree (each shard builds its
// own copy) but counts every conditional tree exactly once.
func Reduce(parts []*Partial) *core.Result {
	res := &core.Result{}
	for _, p := range parts {
		res.Patterns = append(res.Patterns, p.Patterns...)
		res.Stats.PatternsExamined += p.Stats.PatternsExamined
		res.Stats.PatternsPruned += p.Stats.PatternsPruned
		res.Stats.TreeNodes += p.Stats.TreeNodes
		if p.Stats.CandidateItems > res.Stats.CandidateItems {
			res.Stats.CandidateItems = p.Stats.CandidateItems
		}
		if p.Stats.MaxDepth > res.Stats.MaxDepth {
			res.Stats.MaxDepth = p.Stats.MaxDepth
		}
	}
	res.Canonicalize()
	return res
}
