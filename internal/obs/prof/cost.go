// Package prof is the per-request cost readout: two reads of the
// process-wide counters (cumulative heap allocation and CPU time) taken
// around a mining section, and their difference. The serve layer journals
// and exports the deltas next to each request.
//
// It is stdlib-only. Only the serve layer and the cmds may import it, and
// the layering pass enforces that: the counters belong to the whole
// process, so a library package that read them would report other work as
// its own.
package prof

import (
	"runtime"
	"time"
)

// Cost is a point-in-time read of the process's cumulative resource use.
// Per-request cost is the difference of two reads taken around the mining
// section; both counters are process-wide, so attribution is exact only
// while one request mines at a time and an upper bound under concurrency
// (the journal documents it as such).
type Cost struct {
	// AllocBytes is cumulative heap allocation (runtime.MemStats
	// TotalAlloc): monotone, counts all allocs ever, immune to GC timing.
	AllocBytes uint64
	// CPU is cumulative user+system CPU time consumed by the process.
	// Read from getrusage on unix; zero where unavailable, and a Sub of
	// two zero reads stays zero rather than inventing numbers.
	CPU time.Duration
}

// Sub returns the per-section delta c-prev, clamped at zero (counters are
// monotone, but clamping keeps a misordered pair from going negative).
func (c Cost) Sub(prev Cost) Cost {
	d := Cost{}
	if c.AllocBytes > prev.AllocBytes {
		d.AllocBytes = c.AllocBytes - prev.AllocBytes
	}
	if c.CPU > prev.CPU {
		d.CPU = c.CPU - prev.CPU
	}
	return d
}

// ReadCost samples the process counters: one runtime.ReadMemStats plus one
// getrusage syscall. ReadMemStats stops the world for a few microseconds,
// and in exchange flushes every P's span cache first, so the read counts
// the small allocations still sitting in cached spans; the runtime/metrics
// counter counts those only when their span is refilled, which reads a
// mine whose allocations fit the cached spans as zero.
func ReadCost() Cost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Cost{AllocBytes: ms.TotalAlloc, CPU: processCPU()}
}
