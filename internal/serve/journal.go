// The request journal is rpserved's flight recorder: a bounded in-memory
// ring of the last N mining requests (/v1/mine, and /v1/shard/mine tasks
// under their coordinator's propagated ID) — every outcome, not just
// successes — plus a long-term bucket that retains the slowest requests
// after the ring has churned past them (the x/net/trace idea, stdlib-only).
// Entries are immutable once added, so the /debug/requests handlers render
// snapshots without copying anything but the slice headers.
package serve

import (
	"sort"
	"sync"
	"time"

	"github.com/recurpat/rp/internal/obs"
)

// slowBucketSize caps the long-term bucket of slowest requests.
const slowBucketSize = 16

// RequestEntry is one completed /v1/mine request as retained by the
// journal and rendered by /debug/requests. All fields are filled before
// the entry is added and never mutated afterwards.
type RequestEntry struct {
	// ID is the request's access-log id (obs.RequestID).
	ID string `json:"id"`
	// Start is when the handler began processing the request.
	Start time.Time `json:"start"`
	// DB and FP name the target database and its content fingerprint
	// (empty when the request failed before resolving one).
	DB string `json:"db,omitempty"`
	FP string `json:"fp,omitempty"`
	// Opts is the resolved options digest, as in the access log.
	Opts string `json:"opts,omitempty"`
	// Outcome is the one-word request outcome (ok, cache-hit, coalesced,
	// shed, cancelled, timeout, ...), Status the HTTP status sent.
	Outcome string `json:"outcome"`
	Status  int    `json:"status"`
	// Cached reports whether the response reused another run's result.
	Cached bool `json:"cached"`
	// Patterns is the number of patterns in the response (successes only).
	Patterns int `json:"patterns"`
	// QueueMS is time spent waiting for a mining slot, MineMS the
	// producing mine's wall time (historic on cache hits), ElapsedMS this
	// request's total handling time.
	QueueMS   float64 `json:"queueMS"`
	MineMS    float64 `json:"mineMS"`
	ElapsedMS float64 `json:"elapsedMS"`
	// AllocBytes and CPUMS are the producing mine's resource cost, read as
	// process-counter deltas around the mining section (historic on cache
	// hits, an upper bound when mines overlap; zero when nothing was
	// executed — shed, bad requests, ...).
	AllocBytes uint64  `json:"allocBytes"`
	CPUMS      float64 `json:"cpuMS"`
	// Phases is the per-phase breakdown of the producing mine (only
	// phases that observed time or work). Historic marks breakdowns
	// inherited from the cached producing run rather than measured during
	// this request.
	Phases   []obs.PhaseStat `json:"phases,omitempty"`
	Historic bool            `json:"historic,omitempty"`
}

// journal retains recent and slow request entries. All methods are safe
// for concurrent use.
type journal struct {
	mu      sync.Mutex
	cap     int
	slowMin time.Duration

	recent []*RequestEntry // ring; next is the slot the next add overwrites
	next   int
	total  int64

	slow []*RequestEntry // slowest long-term entries, ElapsedMS descending
}

// newJournal sizes the ring to hold size entries; slowMin is the elapsed
// time at which a request also enters the long-term slow bucket.
func newJournal(size int, slowMin time.Duration) *journal {
	return &journal{cap: size, slowMin: slowMin}
}

// add retains one completed request. Past the ring capacity the oldest
// recent entry is evicted; entries at or above slowMin are additionally
// kept in the slow bucket until slowBucketSize faster ones displace them.
func (j *journal) add(e *RequestEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.total++
	if len(j.recent) < j.cap {
		j.recent = append(j.recent, e)
	} else {
		j.recent[j.next] = e
		j.next = (j.next + 1) % j.cap
	}
	if time.Duration(e.ElapsedMS*float64(time.Millisecond)) < j.slowMin {
		return
	}
	i := sort.Search(len(j.slow), func(i int) bool { return j.slow[i].ElapsedMS < e.ElapsedMS })
	if i >= slowBucketSize {
		return
	}
	j.slow = append(j.slow, nil)
	copy(j.slow[i+1:], j.slow[i:])
	j.slow[i] = e
	if len(j.slow) > slowBucketSize {
		j.slow = j.slow[:slowBucketSize]
	}
}

// snapshot returns the retained entries — recent ones newest-first, slow
// ones slowest-first — and the total number of requests journalled.
func (j *journal) snapshot() (recent, slow []*RequestEntry, total int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	recent = make([]*RequestEntry, 0, len(j.recent))
	for i := 1; i <= len(j.recent); i++ {
		recent = append(recent, j.recent[(j.next+len(j.recent)-i)%len(j.recent)])
	}
	return recent, append([]*RequestEntry(nil), j.slow...), j.total
}
