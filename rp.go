// Package rp discovers recurring patterns in time series: itemsets that
// appear periodically during particular time intervals of a series, rather
// than throughout it. It implements the model and the RP-growth algorithm of
// R. Uday Kiran, Haichuan Shang, Masashi Toyoda and Masaru Kitsuregawa,
// "Discovering Recurring Patterns in Time Series", EDBT 2015.
//
// A time series is supplied as a sequence of (item, timestamp) events; the
// library models it as a temporally ordered transactional database and mines
// every pattern X whose recurrence — the number of time windows in which X
// reappears at least MinPS times with consecutive gaps of at most Per —
// reaches MinRec. Each reported pattern carries its support, recurrence, and
// the interesting periodic intervals with their periodic supports.
//
// Quick start:
//
//	b := rp.NewBuilder()
//	b.Add("jackets", ts1)
//	b.Add("gloves", ts1)
//	// ... more events ...
//	db := b.Build()
//	patterns, err := rp.Mine(db, rp.Options{Per: 2, MinPS: 3, MinRec: 2})
//
// The companion packages under internal/ house the substrate (tsdb), the
// algorithm internals (core), the comparison baselines (baseline/ppattern,
// baseline/pfgrowth), the dataset simulators (gen) and the extensions
// (ext); the cmd/ tools and examples/ programs exercise everything
// end-to-end.
package rp

import (
	"context"
	"io"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// Foundation types, re-exported from the substrate.
type (
	// Event is a single (item, timestamp) observation.
	Event = tsdb.Event
	// EventSequence is an ordered collection of events.
	EventSequence = tsdb.EventSequence
	// DB is a temporally ordered transactional database built from a series.
	DB = tsdb.DB
	// Builder accumulates events into a DB.
	Builder = tsdb.Builder
	// ItemID is the dense identifier the miners use for items.
	ItemID = tsdb.ItemID
	// Stats summarizes a database.
	Stats = tsdb.Stats
)

// Model types, re-exported from the core.
type (
	// Options holds the Per / MinPS / MinRec thresholds and execution
	// knobs. Options.Validate reports the first violated constraint; every
	// entry point (Mine, MineFunc, NewIncremental, the CLIs, rpserved)
	// validates with it and reports the same error text. The constraints:
	//
	//	Field        Constraint        Meaning when violated
	//	Per          > 0               no inter-arrival time could be periodic
	//	MinPS        > 0               an empty interval would be interesting
	//	MinRec       > 0               every pattern would trivially recur
	//	MaxLen       >= 0              (0 = unlimited pattern length)
	//	Parallelism  >= 0              (0 or 1 = one worker)
	Options = core.Options
	// Interval is a periodic interval [Start, End] with periodic support PS.
	Interval = core.Interval
	// Result is a mining result: patterns plus optional search statistics.
	Result = core.Result
	// MineStats counts mining work (populated with Options.CollectStats).
	MineStats = core.MineStats
	// CancelError is returned by the *Context entry points when mining is
	// cut short; it unwraps to ctx.Err() and carries partial MineStats
	// when Options.CollectStats was set.
	CancelError = core.CancelError
)

// Observability types, re-exported from the tracing layer.
type (
	// Trace receives per-phase wall time and work counts for mining runs
	// when attached via Options.Trace (nil = zero overhead). One Trace
	// may aggregate any number of runs, concurrent ones included; see
	// NewTrace and Trace.Report.
	Trace = obs.Trace
	// PhaseReport is a snapshot of a Trace: per-phase times mapped to the
	// paper's algorithm steps (initial scan, tree build, subtree mining,
	// finalize, plus nested ts-merge and Erec-prune work counts). Its
	// String method renders the phase table printed by rpmine -phases.
	PhaseReport = obs.PhaseReport
	// Timeline is the flight recorder: attached to a Trace via
	// Trace.AttachTimeline, it retains a bounded per-run span timeline
	// (every phase span and mining subtree task, with timestamps and
	// nested work counters) on top of the aggregate phase accumulators.
	Timeline = obs.Timeline
	// TimelineSnapshot is a point-in-time copy of a Timeline, the input to
	// WriteTraceEvents.
	TimelineSnapshot = obs.TimelineSnapshot
	// SpanRecord is one retained span of a recorded run.
	SpanRecord = obs.SpanRecord
)

// DefaultTimelineSpans is the span retention cap NewTimeline resolves a
// zero cap to.
const DefaultTimelineSpans = obs.DefaultTimelineSpans

// NewTrace returns an empty phase trace, ready to attach to Options.Trace:
//
//	o := rp.Options{Per: 360, MinPS: 20, MinRec: 2, Trace: rp.NewTrace()}
//	patterns, err := rp.Mine(db, o)
//	fmt.Print(o.Trace.Report())
func NewTrace() *Trace { return obs.NewTrace() }

// NewTimeline returns an empty span timeline retaining up to maxSpans
// spans (0 = DefaultTimelineSpans; further spans only feed the aggregates
// and are counted as dropped). Attach it to a trace to record a run:
//
//	o := rp.Options{Per: 360, MinPS: 20, MinRec: 2, Trace: rp.NewTrace()}
//	tl := rp.NewTimeline(0)
//	o.Trace.AttachTimeline(tl)
//	patterns, err := rp.Mine(db, o)
//	err = rp.WriteTraceEvents(f, "my run", tl.Snapshot())
func NewTimeline(maxSpans int) *Timeline { return obs.NewTimeline(maxSpans) }

// WriteTraceEvents renders a recorded timeline as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing; name labels
// the process track. Concurrent mining tasks land on distinct lanes.
func WriteTraceEvents(w io.Writer, name string, snap TimelineSnapshot) error {
	return obs.WriteTraceEvents(w, name, snap)
}

// ValidateTraceEvents checks that r holds well-formed Chrome trace-event
// JSON of the shape WriteTraceEvents produces and returns the number of
// span events. The rptrace command wraps it for scripts.
func ValidateTraceEvents(r io.Reader) (spans int, err error) {
	return obs.ValidateTraceEvents(r)
}

// NewBuilder returns an empty database builder.
func NewBuilder() *Builder { return tsdb.NewBuilder() }

// FromEvents builds a database directly from an event sequence.
func FromEvents(events EventSequence) *DB { return tsdb.FromEvents(events) }

// ReadDB parses a database from either supported on-disk format — the
// text transaction format ("timestamp<TAB>item item ..." lines) or the
// mmap-able v2 layout — detected automatically. A file in the retired v1
// binary format fails with an error naming it.
// Seekable and in-memory inputs are read to EOF (a *bytes.Buffer is
// drained, never aliased) and text parses in one pass over the bytes;
// use ReadDBFile or OpenDBFile when the input is a file.
func ReadDB(r io.Reader) (*DB, error) { return tsdb.ReadAny(r) }

// ReadDBFile loads a database file in any supported format fully into
// memory. Text parses in one pass over the file's bytes; the v2 mapped
// layout materializes its view without a per-item decode loop.
func ReadDBFile(path string) (*DB, error) { return tsdb.ReadFile(path) }

// DBFile is an opened database file (see OpenDBFile). Close releases the
// mapping when the file was memory-mapped; the DB must not be used after.
type DBFile = tsdb.File

// OpenDBFile opens a database file in any supported format. Files in the
// v2 mapped layout are memory-mapped where the platform allows: the
// timestamp and item sections are used in place, so opening is metadata
// validation rather than a decode of every item. Other formats load as
// ReadDBFile does. Callers own the returned handle and must Close it.
func OpenDBFile(path string) (*DBFile, error) { return tsdb.OpenFile(path) }

// WriteDB serializes a database in the text transaction format.
func WriteDB(w io.Writer, db *DB) error { return tsdb.Write(w, db) }

// WriteDBMapped serializes a database in the mmap-able v2 layout: aligned
// little-endian sections behind a versioned header, loadable with
// OpenDBFile as a read-only view with no decode loop. Timestamps must be
// strictly increasing (guaranteed for databases built by this package).
func WriteDBMapped(w io.Writer, db *DB) error { return tsdb.WriteMapped(w, db) }

// ComputeStats summarizes a database.
func ComputeStats(db *DB) Stats { return tsdb.ComputeStats(db) }

// MinPSFromPercent converts a percentage of the database size into an
// absolute minimum periodic support (at least 1), matching how the paper
// states its thresholds.
func MinPSFromPercent(db *DB, percent float64) int {
	return core.MinPSFromPercent(db, percent)
}

// Pattern is a recurring pattern with item names resolved.
type Pattern struct {
	// Items are the pattern's item names, in the dictionary's ID order.
	Items []string
	// Support is the number of transactions containing the pattern.
	Support int
	// Recurrence is the number of interesting periodic intervals.
	Recurrence int
	// Intervals are the interesting periodic intervals in time order.
	Intervals []Interval
}

// Mine runs RP-growth on db and returns the recurring patterns with item
// names resolved, in canonical order (shortest patterns first, then by item
// ID). Use MineRaw to access ItemID-level results and mining statistics,
// and MineContext when the run must be cancellable.
func Mine(db *DB, o Options) ([]Pattern, error) {
	return MineContext(context.Background(), db, o)
}

// MineContext is Mine with cancellation: when ctx is cancelled or its
// deadline passes, mining stops at the next subtree-task boundary and the
// returned error is a *CancelError wrapping ctx.Err() — so
// errors.Is(err, context.Canceled) and errors.As(err, **CancelError) both
// work, and with Options.CollectStats set the CancelError carries the
// partial search statistics accumulated before the stop.
func MineContext(ctx context.Context, db *DB, o Options) ([]Pattern, error) {
	res, err := core.MineContext(ctx, db, o)
	if err != nil {
		return nil, err
	}
	return resolve(db, res), nil
}

// MineRaw runs RP-growth and returns the ItemID-level result, including
// MineStats when Options.CollectStats is set.
func MineRaw(db *DB, o Options) (*Result, error) { return core.Mine(db, o) }

// MineRawContext is MineRaw with cancellation (see MineContext).
func MineRawContext(ctx context.Context, db *DB, o Options) (*Result, error) {
	return core.MineContext(ctx, db, o)
}

// MineFunc streams recurring patterns to fn as they are discovered, with
// item names resolved; memory stays bounded by the mining structures
// rather than the result set. Returning false stops mining early. Patterns
// arrive in discovery order, not the canonical order of Mine.
func MineFunc(db *DB, o Options, fn func(Pattern) bool) error {
	return MineFuncContext(context.Background(), db, o, fn)
}

// MineFuncContext is MineFunc with cancellation: when ctx fires, the
// stream stops at the next subtree-task boundary and a *CancelError
// wrapping ctx.Err() is returned. Patterns already delivered stay
// delivered; fn returning false remains an error-free early stop.
func MineFuncContext(ctx context.Context, db *DB, o Options, fn func(Pattern) bool) error {
	return core.MineFuncContext(ctx, db, o, func(p core.Pattern) bool {
		return fn(Pattern{
			Items:      db.PatternNames(p.Items),
			Support:    p.Support,
			Recurrence: p.Recurrence,
			Intervals:  p.Intervals,
		})
	})
}

func resolve(db *DB, res *core.Result) []Pattern {
	out := make([]Pattern, len(res.Patterns))
	for i, p := range res.Patterns {
		out[i] = Pattern{
			Items:      db.PatternNames(p.Items),
			Support:    p.Support,
			Recurrence: p.Recurrence,
			Intervals:  p.Intervals,
		}
	}
	return out
}
