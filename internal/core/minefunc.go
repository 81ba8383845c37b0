package core

import (
	"context"

	"github.com/recurpat/rp/internal/tsdb"
)

// MineFunc runs RP-growth and invokes fn for every recurring pattern as it
// is discovered, instead of accumulating a result slice — memory stays
// bounded by the tree, not by the (possibly huge) pattern set. Patterns
// arrive in discovery order (suffix-item order, not the canonical order of
// Mine); returning false from fn stops mining early.
//
// MineFunc is always sequential: Options.Parallelism is ignored, so the
// run's pool has one worker and the callback never races with itself.
// The callback runs under the run's phase=mine pprof label (plus any
// request labels on the context), like every other mining path. Long-running
// callers that need cancellation should use MineFuncContext.
func MineFunc(db *tsdb.DB, o Options, fn func(Pattern) bool) error {
	//rpvet:allow ctxflow — MineFunc is the documented non-cancellable compat wrapper; the root it mints is the API contract
	return MineFuncContext(context.Background(), db, o, fn)
}

// MineFuncContext is MineFunc with cancellation: when ctx is cancelled the
// miner stops at the next subtree-task boundary and a *CancelError wrapping
// ctx.Err() is returned. Patterns already delivered to fn stay delivered;
// an early stop requested by fn returning false is not an error.
func MineFuncContext(ctx context.Context, db *tsdb.DB, o Options, fn func(Pattern) bool) error {
	o.Parallelism = 0
	_, err := mine(ctx, db, o, ShardSpec{Index: 0, Count: 1}, fn)
	return err
}
