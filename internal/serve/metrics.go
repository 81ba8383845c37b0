package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/recurpat/rp/internal/obs"
)

// histBounds are the upper bounds of the mining-time histogram buckets;
// an implicit final bucket catches everything slower. The spacing is
// decade-wise because mining time spans from sub-millisecond toy requests
// to multi-second full-scale runs. The same bounds serve the per-phase
// histograms: phases are fractions of mining time, so they need the same
// dynamic range one decade down, which the sub-millisecond buckets cover.
var histBounds = [...]time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// histBoundsSeconds is histBounds in the unit Prometheus conventions
// require for time series (seconds).
var histBoundsSeconds = func() []float64 {
	s := make([]float64, len(histBounds))
	for i, b := range histBounds {
		s[i] = b.Seconds()
	}
	return s
}()

// byteBounds are the upper bounds of the per-request allocation histogram,
// spaced in decades-of-16 because request alloc cost spans from a cached
// toy mine's bookkeeping to a full-scale run's working set.
var byteBounds = [...]int64{
	64 << 10,  // 64 KiB
	1 << 20,   // 1 MiB
	16 << 20,  // 16 MiB
	256 << 20, // 256 MiB
	4 << 30,   // 4 GiB
}

// byteBoundsFloat is byteBounds as Prometheus `le` values.
var byteBoundsFloat = func() []float64 {
	s := make([]float64, len(byteBounds))
	for i, b := range byteBounds {
		s[i] = float64(b)
	}
	return s
}()

// durationHist is one wall-time histogram: per-bucket (non-cumulative)
// counts plus the total observed time, all updated atomically.
type durationHist struct {
	buckets [len(histBounds) + 1]atomic.Int64
	nanos   atomic.Int64
}

func (h *durationHist) observe(d time.Duration) {
	h.nanos.Add(int64(d))
	for i, b := range histBounds {
		if d <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(histBounds)].Add(1)
}

// snapshot copies the bucket counts.
func (h *durationHist) snapshot() (buckets [len(histBounds) + 1]int64, nanos int64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, h.nanos.Load()
}

// byteHist is durationHist's shape over byte sizes: per-bucket counts plus
// the total observed bytes.
type byteHist struct {
	buckets [len(byteBounds) + 1]atomic.Int64
	bytes   atomic.Int64
}

func (h *byteHist) observe(n int64) {
	h.bytes.Add(n)
	for i, b := range byteBounds {
		if n <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(byteBounds)].Add(1)
}

func (h *byteHist) snapshot() (buckets [len(byteBounds) + 1]int64, bytes int64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, h.bytes.Load()
}

// metrics aggregates the serving counters reported by /v1/stats and
// rendered as Prometheus text by /metrics. Every
// field is updated atomically; one value is shared by all handler
// goroutines.
type metrics struct {
	requests    atomic.Int64 // POST /v1/mine requests received
	cacheHits   atomic.Int64 // served straight from the result cache
	cacheMisses atomic.Int64 // had to consult the single-flight group
	shed        atomic.Int64 // 429s: admission queue full or wait timed out
	cancelled   atomic.Int64 // client went away mid-queue or mid-mine
	timeouts    atomic.Int64 // mines stopped by the server-side deadline
	errors      atomic.Int64 // other failed requests (bad input, unknown db, oversized body)
	mined       atomic.Int64 // mining runs actually executed
	mining      durationHist // wall time per executed mining run

	uploads          atomic.Int64 // POST /v1/datasets requests received
	datasetEvictions atomic.Int64 // datasets displaced by the registry's LRU bounds

	shardRequests atomic.Int64 // POST /v1/shard/mine requests received
	shardMined    atomic.Int64 // shard tasks executed to completion

	// requestAlloc and requestCPU histogram the per-request resource cost
	// measured around the executed mining section (leaders and shard tasks;
	// cache hits re-serve the producing run's cost and are not re-counted).
	requestAlloc byteHist
	requestCPU   durationHist

	// phases histograms the per-phase wall time of every executed mine,
	// one histogram per algorithm phase of the tracer's taxonomy. Nested
	// phases (ts-merge) record their aggregate time per run like the
	// others; count-only phases (erec-prune) stay at zero and are elided
	// from the exposition.
	phases [obs.NumPhases]durationHist
}

// observeMineTime records one completed mining run in the histogram.
func (m *metrics) observeMineTime(d time.Duration) {
	m.mined.Add(1)
	m.mining.observe(d)
}

// observeCost records one executed mine's resource cost.
func (m *metrics) observeCost(allocBytes uint64, cpu time.Duration) {
	m.requestAlloc.observe(int64(allocBytes))
	m.requestCPU.observe(cpu)
}

// observeTrace folds one run's phase report into the per-phase histograms.
func (m *metrics) observeTrace(r obs.PhaseReport) {
	for i, s := range r.Phases {
		if i >= len(m.phases) {
			break
		}
		if s.Nanos > 0 {
			m.phases[i].observe(time.Duration(s.Nanos))
		}
	}
}

// HistBucket is one mining-time histogram bucket in a stats snapshot.
type HistBucket struct {
	// LE is the bucket's inclusive upper bound rendered as a duration
	// ("1ms", ..., "+Inf").
	LE string `json:"le"`
	// LENanos is the same bound in nanoseconds, so the JSON is
	// interpretable without parsing duration strings; -1 marks the
	// catch-all +Inf bucket.
	LENanos int64 `json:"leNanos"`
	// Count is the number of mines that completed within the bound
	// (non-cumulative: each mine lands in exactly one bucket).
	Count int64 `json:"count"`
}

// histSnapshot renders a durationHist's buckets with their bounds.
func histSnapshot(h *durationHist) []HistBucket {
	buckets, _ := h.snapshot()
	out := make([]HistBucket, 0, len(buckets))
	for i, b := range histBounds {
		out = append(out, HistBucket{LE: b.String(), LENanos: int64(b), Count: buckets[i]})
	}
	return append(out, HistBucket{LE: "+Inf", LENanos: -1, Count: buckets[len(histBounds)]})
}

// ByteBucket is one byte-size histogram bucket in a stats snapshot, the
// bytes analogue of HistBucket.
type ByteBucket struct {
	// LE is the bucket's inclusive upper bound, human-formatted
	// ("64KiB", ..., "+Inf"); LEBytes the same bound in bytes (-1 = +Inf).
	LE      string `json:"le"`
	LEBytes int64  `json:"leBytes"`
	// Count is the number of requests whose alloc cost fell in this bucket
	// (non-cumulative).
	Count int64 `json:"count"`
}

// formatBytes renders a byte bound the way the bounds were chosen: as a
// power-of-two multiple of KiB/MiB/GiB.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// byteHistSnapshot renders a byteHist's buckets with their bounds.
func byteHistSnapshot(h *byteHist) []ByteBucket {
	buckets, _ := h.snapshot()
	out := make([]ByteBucket, 0, len(buckets))
	for i, b := range byteBounds {
		out = append(out, ByteBucket{LE: formatBytes(b), LEBytes: b, Count: buckets[i]})
	}
	return append(out, ByteBucket{LE: "+Inf", LEBytes: -1, Count: buckets[len(byteBounds)]})
}

// MetricsSnapshot is a point-in-time copy of the serving counters.
type MetricsSnapshot struct {
	Requests      int64        `json:"requests"`
	CacheHits     int64        `json:"cacheHits"`
	CacheMisses   int64        `json:"cacheMisses"`
	Shed          int64        `json:"shed"`
	Cancelled     int64        `json:"cancelled"`
	Timeouts      int64        `json:"timeouts"`
	Errors        int64        `json:"errors"`
	Mined         int64        `json:"mined"`
	MiningMSTotal float64      `json:"miningMSTotal"`
	MiningTime    []HistBucket `json:"miningTime"`

	Uploads          int64 `json:"uploads"`
	DatasetEvictions int64 `json:"datasetEvictions"`

	ShardRequests int64 `json:"shardRequests"`
	ShardMined    int64 `json:"shardMined"`

	// Per-request cost: heap allocation and CPU time of executed mining
	// sections (totals plus their histograms).
	RequestAllocBytesTotal int64        `json:"requestAllocBytesTotal"`
	RequestAllocBytes      []ByteBucket `json:"requestAllocBytes"`
	RequestCPUMSTotal      float64      `json:"requestCPUMSTotal"`
	RequestCPUTime         []HistBucket `json:"requestCPUTime"`
}

// snapshot copies the counters. Individual loads are atomic but the
// snapshot as a whole is not; for operational metrics that is fine.
func (m *metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Requests:      m.requests.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
		Shed:          m.shed.Load(),
		Cancelled:     m.cancelled.Load(),
		Timeouts:      m.timeouts.Load(),
		Errors:        m.errors.Load(),
		Mined:         m.mined.Load(),
		MiningMSTotal: float64(m.mining.nanos.Load()) / 1e6,
		MiningTime:    histSnapshot(&m.mining),

		Uploads:          m.uploads.Load(),
		DatasetEvictions: m.datasetEvictions.Load(),

		ShardRequests: m.shardRequests.Load(),
		ShardMined:    m.shardMined.Load(),

		RequestAllocBytesTotal: m.requestAlloc.bytes.Load(),
		RequestAllocBytes:      byteHistSnapshot(&m.requestAlloc),
		RequestCPUMSTotal:      float64(m.requestCPU.nanos.Load()) / 1e6,
		RequestCPUTime:         histSnapshot(&m.requestCPU),
	}
}

// writeProm renders the counters and histograms in Prometheus text
// exposition format. Gauges that live on the Server (in-flight, queue
// depth, cache size, drain state) are appended by the /metrics handler.
func (m *metrics) writeProm(p *obs.PromWriter) {
	p.Counter("rpserved_requests_total", "Mining requests received.", float64(m.requests.Load()))
	p.Counter("rpserved_cache_hits_total", "Requests served from the result cache.", float64(m.cacheHits.Load()))
	p.Counter("rpserved_cache_misses_total", "Requests that consulted the single-flight group.", float64(m.cacheMisses.Load()))
	p.Counter("rpserved_shed_total", "Requests shed by admission control (429).", float64(m.shed.Load()))
	p.Counter("rpserved_cancelled_total", "Requests whose client went away mid-queue or mid-mine.", float64(m.cancelled.Load()))
	p.Counter("rpserved_timeouts_total", "Mines stopped by the server-side deadline.", float64(m.timeouts.Load()))
	p.Counter("rpserved_errors_total", "Other failed requests (bad input, unknown database, oversized body).", float64(m.errors.Load()))
	p.Counter("rpserved_mined_total", "Mining runs actually executed.", float64(m.mined.Load()))
	p.Counter("rpserved_uploads_total", "Dataset uploads received.", float64(m.uploads.Load()))
	p.Counter("rpserved_dataset_evictions_total", "Datasets displaced by the registry's LRU bounds.", float64(m.datasetEvictions.Load()))
	p.Counter("rpserved_shard_requests_total", "Shard mine requests received.", float64(m.shardRequests.Load()))
	p.Counter("rpserved_shard_mined_total", "Shard tasks executed to completion.", float64(m.shardMined.Load()))

	buckets, nanos := m.mining.snapshot()
	p.Histogram("rpserved_mining_seconds", "Wall time per executed mining run.",
		nil, histBoundsSeconds, buckets[:], float64(nanos)/1e9)

	allocBuckets, allocBytes := m.requestAlloc.snapshot()
	p.Histogram("rpserved_request_alloc_bytes", "Heap bytes allocated per executed mining section.",
		nil, byteBoundsFloat, allocBuckets[:], float64(allocBytes))
	cpuBuckets, cpuNanos := m.requestCPU.snapshot()
	p.Histogram("rpserved_request_cpu_seconds", "Process CPU time consumed per executed mining section.",
		nil, histBoundsSeconds, cpuBuckets[:], float64(cpuNanos)/1e9)

	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		buckets, nanos := m.phases[ph].snapshot()
		count := int64(0)
		for _, b := range buckets {
			count += b
		}
		if count == 0 {
			continue // count-only phases (erec-prune) have no time series
		}
		p.Histogram("rpserved_phase_seconds", "Wall time per mining run attributed to one algorithm phase.",
			map[string]string{"phase": ph.String()}, histBoundsSeconds, buckets[:], float64(nanos)/1e9)
	}
}
