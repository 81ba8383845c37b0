package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// Coordinator scatters one mine over Count shard tasks through an Executor
// and gathers the partials into a canonical result.
type Coordinator struct {
	// Count is the number of shard tasks to plan. Must be positive.
	Count int
	// Exec runs each task: Local{} for a one-box scatter, *Client for
	// remote peers.
	Exec Executor
}

// Mine scatters the mine over the planned tasks — one goroutine per task,
// each traced as a labeled obs.PhaseShard span — and gathers: the reduced
// result is byte-identical to core.MineContext over the same database and
// options. The first shard error cancels the rest of the scatter and is
// returned; there is no partial result.
func (c *Coordinator) Mine(ctx context.Context, db *tsdb.DB, o core.Options) (*core.Result, error) {
	if c.Exec == nil {
		return nil, errors.New("shard: coordinator has no executor")
	}
	tasks, err := Plan(db.Fingerprint(), c.Count)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	parts := make([]*Partial, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t Task) {
			defer wg.Done()
			sp := o.Trace.StartLabeled(obs.PhaseShard, fmt.Sprintf("shard=%d/%d", t.Index, t.Count))
			parts[i], errs[i] = c.Exec.Execute(sctx, db, o, t)
			sp.End()
			if p := parts[i]; p != nil && p.Remote != nil {
				// Graft the peer's recorded lane into the coordinator's
				// timeline: one fleet-wide flight record per request.
				o.Trace.Timeline().AddPeer(*p.Remote)
			}
			if errs[i] != nil {
				cancel()
			}
		}(i, t)
	}
	wg.Wait()

	failed := 0
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		failed++
		// Prefer the root-cause error over the cancellations it induced in
		// sibling shards.
		if firstErr == nil || isCancellation(firstErr) && !isCancellation(err) {
			firstErr = err
		}
	}
	if failed == 0 {
		return Reduce(parts), nil
	}
	if err := ctx.Err(); err != nil {
		// The caller's own context fired; report that rather than a
		// per-shard symptom.
		return nil, &core.CancelError{Err: err}
	}
	return nil, fmt.Errorf("shard: %d/%d shard tasks failed: %w", failed, len(tasks), firstErr)
}

// isCancellation reports whether err is a context or miner cancellation —
// the induced errors a failed scatter produces in the shards it aborts.
func isCancellation(err error) bool {
	var cerr *core.CancelError
	return errors.Is(err, context.Canceled) || errors.As(err, &cerr)
}
