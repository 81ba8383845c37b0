package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// errShed reports that admission control refused a mining run: either the
// wait queue was already full, or the request queued but no slot freed up
// within the queue timeout. Handlers translate it into 429 Too Many
// Requests so clients know to back off and retry.
var errShed = errors.New("serve: admission queue full, try again later")

// admission is a counting semaphore with a bounded wait queue. At most
// `slots` mines run concurrently; up to `maxQueue` further requests wait —
// each for at most `timeout` — and everything beyond that is shed
// immediately. Bounding both dimensions keeps a burst from stacking up
// goroutines (and their eventual mines) faster than the miners can drain
// them.
type admission struct {
	sem      chan struct{} // buffered; one token per running mine
	queued   atomic.Int64  // requests currently waiting for a token
	maxQueue int64
	timeout  time.Duration
}

// newAdmission needs slots ≥ 1 and maxQueue ≥ 0, as Config.withDefaults
// resolves them.
func newAdmission(slots int, maxQueue int, timeout time.Duration) *admission {
	return &admission{
		sem:      make(chan struct{}, slots),
		maxQueue: int64(maxQueue),
		timeout:  timeout,
	}
}

// acquire blocks until a slot is free, the queue timeout fires (errShed),
// the queue is already full (errShed, immediately), or ctx is done
// (ctx.Err()). A nil error means the caller holds a slot and must release
// it.
func (a *admission) acquire(ctx context.Context) error {
	// Fast path: a slot is free, skip the queue accounting entirely.
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}

	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		return errShed
	}
	defer a.queued.Add(-1)

	t := time.NewTimer(a.timeout)
	defer t.Stop()
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-t.C:
		return errShed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the slot taken by a successful acquire.
func (a *admission) release() { <-a.sem }

// inFlight reports how many mines currently hold a slot.
func (a *admission) inFlight() int { return len(a.sem) }

// waiting reports how many requests are queued for a slot.
func (a *admission) waiting() int { return int(a.queued.Load()) }
