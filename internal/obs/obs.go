// Package obs is the observability layer of the mining stack: a lock-cheap
// phase tracer that attributes wall time and work counts to the algorithm
// phases of RP-growth, a Prometheus text-exposition writer, and log/slog
// helpers shared by the service and the CLIs. It is stdlib-only and imports
// nothing module-internal, so every layer — core, serve, cliio, the cmds —
// may depend on it.
//
// The tracer is pay-for-what-you-use: a nil *Trace is a valid receiver for
// every method and costs a nil check, so core threads Options.Trace through
// the miners unconditionally and an untraced run does no timing work at all.
// Traced hot paths accumulate into a per-worker Local and flush it to the
// shared Trace once per subtree task, so the atomics never sit in a per-node
// loop.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one algorithm phase of an RP-growth run. The top-level
// phases (Scan through Finalize) partition a run's wall time; the nested
// phases (Merge, Prune) attribute work that happens inside Mine and are
// excluded from coverage sums.
type Phase uint8

const (
	// PhaseIngest is database loading: parsing a TDB from its on-disk or
	// on-the-wire form into the in-memory representation. It precedes the
	// mining phases (a mine over an already-loaded database observes no
	// ingest time); its count is the number of input bytes consumed, so
	// time and count together give ingest throughput.
	PhaseIngest Phase = iota
	// PhaseScan is the first database scan: building the RP-list of
	// candidate items with their supports and Erec estimates (Algorithm 1).
	PhaseScan
	// PhaseTreeBuild is the second database scan: inserting every
	// candidate item projection into the initial RP-tree (Algorithm 2).
	PhaseTreeBuild
	// PhaseMine is bottom-up pattern growth: per-suffix-item conditional
	// mining with recurrence evaluation (Algorithms 4 and 5). Its count is
	// the number of top-level subtree tasks.
	PhaseMine
	// PhaseFinalize is result assembly: merging worker partials and
	// sorting the pattern set into canonical order.
	PhaseFinalize
	// PhaseShard is scatter-gather coordination: one count per shard task
	// dispatched by a shard coordinator, timed from dispatch to that
	// shard's result (or failure). Nested: the shard time is network plus
	// the peer's run, so it never adds to the coordinator's top-level
	// coverage sum.
	PhaseShard
	// PhaseMerge counts and times the tid-list unions of the conditional
	// Erec check (Section 4.2.3's temporary array), one observation per
	// prefix item whose union is built from the RP-tree's transaction
	// bags; the time includes the fold of the union's periodic runs into
	// Erec, recurrence and intervals. Each pattern's ts-list is gathered
	// once: mining reads the folds, so it builds no unions of its own.
	// Nested inside PhaseMine.
	PhaseMerge
	// PhasePrune counts pattern extensions cut by the Erec candidate
	// bound before recurrence evaluation (Property 2). Nested inside
	// PhaseMine; counted, not timed.
	PhasePrune
	// NumPhases is the number of phases; valid Phase values are below it.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseIngest:    "ingest",
	PhaseScan:      "scan",
	PhaseTreeBuild: "tree-build",
	PhaseMine:      "mine",
	PhaseFinalize:  "finalize",
	PhaseShard:     "shard",
	PhaseMerge:     "ts-merge",
	PhasePrune:     "erec-prune",
}

var phaseUnits = [NumPhases]string{
	PhaseIngest:    "bytes",
	PhaseScan:      "scans",
	PhaseTreeBuild: "builds",
	PhaseMine:      "tasks",
	PhaseFinalize:  "sorts",
	PhaseShard:     "tasks",
	PhaseMerge:     "merges",
	PhasePrune:     "prunes",
}

// String returns the phase's canonical name, used in reports, benchmark
// metric keys and Prometheus label values.
func (p Phase) String() string {
	if p >= NumPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// Unit names what the phase's count counts.
func (p Phase) Unit() string {
	if p >= NumPhases {
		return ""
	}
	return phaseUnits[p]
}

// Nested reports whether the phase's time is contained in another phase's
// (and must therefore be excluded when summing phase times against the
// run's total).
func (p Phase) Nested() bool { return p == PhaseShard || p == PhaseMerge || p == PhasePrune }

// ParsePhase maps a canonical phase name (Phase.String) back to its
// Phase — the wire direction, used when per-peer phase stats arrive from
// a remote shard response.
func ParsePhase(name string) (Phase, bool) {
	for p := Phase(0); p < NumPhases; p++ {
		if phaseNames[p] == name {
			return p, true
		}
	}
	return NumPhases, false
}

// PhaseNames returns the canonical names of all phases in declaration
// order (top-level phases first).
func PhaseNames() []string {
	names := make([]string, NumPhases)
	for i := range names {
		names[i] = Phase(i).String()
	}
	return names
}

// Trace accumulates per-phase wall time and work counts across one or more
// mining runs. All fields are atomics, so one Trace may be shared by the
// parallel miner's workers — but hot paths should batch through a Local and
// flush per subtree task rather than touching the atomics per operation.
// The zero value is ready to use; a nil *Trace is valid for every method
// and records nothing.
type Trace struct {
	nanos  [NumPhases]atomic.Int64
	counts [NumPhases]atomic.Int64

	// totalNanos and runs track whole-run wall time (ObserveTotal /
	// deferred total spans), the reference for phase coverage.
	totalNanos atomic.Int64
	runs       atomic.Int64
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Observe adds nanos of wall time and count work units to phase p.
func (t *Trace) Observe(p Phase, nanos, count int64) {
	if t == nil || p >= NumPhases {
		return
	}
	if nanos != 0 {
		t.nanos[p].Add(nanos)
	}
	if count != 0 {
		t.counts[p].Add(count)
	}
}

// ObserveTotal records the wall time of one whole run.
func (t *Trace) ObserveTotal(nanos int64) {
	if t == nil {
		return
	}
	t.totalNanos.Add(nanos)
	t.runs.Add(1)
}

// Reset zeroes every accumulator. Not atomic as a whole; callers must not
// race Reset with writers.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		t.nanos[p].Store(0)
		t.counts[p].Store(0)
	}
	t.totalNanos.Store(0)
	t.runs.Store(0)
}

// Span is an in-progress timed region. The zero Span (from a nil Trace) is
// inert: End is a no-op.
type Span struct {
	t     *Trace
	p     Phase
	start time.Time
}

// Start opens a span for phase p. Spans may nest freely (each records its
// own elapsed time); End every span exactly once.
func (t *Trace) Start(p Phase) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, p: p, start: Now()}
}

// StartTotal opens a span covering a whole run; its End feeds ObserveTotal.
func (t *Trace) StartTotal() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, p: NumPhases, start: Now()}
}

// End closes the span, crediting its elapsed time (and one work unit) to
// its phase.
func (s Span) End() {
	if s.t == nil {
		return
	}
	el := Since(s.start)
	if s.p == NumPhases {
		s.t.ObserveTotal(el)
	} else {
		s.t.Observe(s.p, el, 1)
	}
}

// Now reads the clock for span timing. Centralized so the tracer has the
// repository's one timing read-out next to serve's.
func Now() time.Time {
	return time.Now() //rpvet:allow determinism — phase tracing measures wall time
}

// Since returns the nanoseconds elapsed since a Now() read, using the
// monotonic clock carried by time.Time.
func Since(start time.Time) int64 { return int64(time.Since(start)) }

// Local is a single-goroutine batch of phase observations. Workers record
// into a Local in their hot loops (plain adds, no atomics) and Flush it to
// the shared Trace once per subtree task.
type Local struct {
	nanos  [NumPhases]int64
	counts [NumPhases]int64
}

// Observe adds nanos and count to phase p in the local batch.
func (l *Local) Observe(p Phase, nanos, count int64) {
	if p >= NumPhases {
		return
	}
	l.nanos[p] += nanos
	l.counts[p] += count
}

// Flush adds the batch to t and zeroes the batch. A nil t discards it.
func (l *Local) Flush(t *Trace) {
	for p := Phase(0); p < NumPhases; p++ {
		if l.nanos[p] != 0 || l.counts[p] != 0 {
			t.Observe(p, l.nanos[p], l.counts[p])
			l.nanos[p], l.counts[p] = 0, 0
		}
	}
}
