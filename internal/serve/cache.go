package serve

import (
	"container/list"
	"context"
	"sync"
	"time"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
)

// cacheKey identifies a mining result: which database (by content
// fingerprint, so reloading identical data still hits) and every Options
// field that can change the output. Parallelism and CollectStats are
// deliberately absent — results are identical across parallelism levels,
// and the server always mines with stats on so a cached entry can answer
// both stats and no-stats requests.
type cacheKey struct {
	fp     uint64
	per    int64
	minPS  int
	minRec int
	maxLen int
}

// cachedResult is an immutable, fully name-resolved mining result. It is
// shared between the cache and any number of concurrent responses, so
// nothing in it may be mutated after construction.
type cachedResult struct {
	patterns []api.Pattern
	stats    core.MineStats
	mineTime time.Duration // wall time of the run that produced it

	// report is the producing run's per-phase breakdown for the request
	// journal. Requests answered from this entry journal it as historic.
	report obs.PhaseReport

	// allocBytes and cpuTime are the producing run's resource cost,
	// measured around the single-flight mining section; like mineTime they
	// are historic on cache hits.
	allocBytes uint64
	cpuTime    time.Duration
}

// resultCache is a mutex-guarded LRU over cachedResults.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *lruEntry
	idx map[cacheKey]*list.Element
}

type lruEntry struct {
	key cacheKey
	val *cachedResult
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[cacheKey]*list.Element),
	}
}

func (c *resultCache) get(k cacheKey) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *resultCache) put(k cacheKey, v *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[k]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.idx[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*lruEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flightGroup coalesces concurrent mines of the same cacheKey: the first
// caller becomes the leader and runs fn; followers block until the leader
// finishes (or their own context fires) and share its outcome. This keeps a
// thundering herd of identical requests from burning one admission slot
// each on redundant work.
//
// The leader runs fn under its own request context, so a cancelled leader
// poisons the shared outcome with a CancelError; do's callers detect that
// case (follower, leader-cancelled, own context still live) and retry,
// promoting one follower to leader on the next round.
type flightGroup struct {
	mu    sync.Mutex
	calls map[cacheKey]*flightCall
}

type flightCall struct {
	done chan struct{} // closed when val/err are settled
	val  *cachedResult
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[cacheKey]*flightCall)}
}

// do executes fn under key, coalescing with an in-flight execution if one
// exists. leader reports whether fn ran in this call; when false, the
// result came from another request's run (or err is ctx.Err() because this
// follower gave up waiting).
func (g *flightGroup) do(ctx context.Context, key cacheKey, fn func() (*cachedResult, error)) (v *cachedResult, err error, leader bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, false
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, true
}
