package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
)

// Chrome trace-event export: a recorded run's TimelineSnapshot rendered as
// the JSON object format every trace-event consumer (Perfetto,
// chrome://tracing, catapult) loads. Spans become "X" (complete) events
// with microsecond timestamps; concurrent spans are spread over synthetic
// thread lanes by a greedy interval assignment, so a parallel run renders
// as stacked worker tracks without the recorder having to know worker IDs.
// A snapshot with grafted peer timelines (a fleet-wide flight record)
// renders each peer as its own process track: the coordinator is pid 1,
// peers follow in canonical order, and the shard client's retry/failure
// annotations appear as instant events on their peer's track.

// TraceEvent is one entry of the trace-event array — the subset of the
// Chrome trace-event format the exporter emits and the validator checks.
type TraceEvent struct {
	// Name labels the event in the UI (here: the phase, plus the span
	// label when present).
	Name string `json:"name"`
	// Ph is the event type: "X" for complete spans, "i" for instant
	// annotations, "M" for metadata.
	Ph string `json:"ph"`
	// S is the instant event's scope ("i" events only): "p" renders the
	// annotation across its whole process track.
	S string `json:"s,omitempty"`
	// Ts is the event start in microseconds since the timeline epoch.
	Ts float64 `json:"ts"`
	// Dur is the span duration in microseconds ("X" events only).
	Dur float64 `json:"dur,omitempty"`
	// Pid and Tid place the event on a process/thread track.
	Pid int `json:"pid"`
	Tid int `json:"tid"`
	// Cat is the event category (here: the phase name).
	Cat string `json:"cat,omitempty"`
	// Args carries the span's work counters.
	Args map[string]any `json:"args,omitempty"`
}

// traceEventFile is the on-disk object shape: the array form also exists in
// the wild, but the object form self-describes its time unit and leaves
// room for metadata, and both Perfetto and chrome://tracing accept it.
type traceEventFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	// OtherData records exporter context. "droppedSpans" is the total
	// span count dropped past retention caps, fleet-wide, as a bare
	// integer (rptrace and the summarizers parse it).
	OtherData map[string]string `json:"otherData,omitempty"`
}

// processNameEvent is the metadata event naming a process track.
func processNameEvent(pid int, name string) TraceEvent {
	return TraceEvent{
		Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": name},
	}
}

// WriteTraceEvents renders a recorded run as Chrome trace-event JSON.
// name labels the coordinator's process track (e.g. "rpmine" or a request
// ID). Spans are laid out on as few thread lanes as their overlaps allow:
// lane 0 carries the run total and the sequential phases, concurrent
// mining tasks fan out over further lanes. Grafted peer snapshots become
// their own process tracks, peer epochs aligned onto the local clock via
// AlignOffset; the output is byte-deterministic in the snapshot alone
// (grafts are canonicalized), whatever order peers answered in.
func WriteTraceEvents(w io.Writer, name string, snap TimelineSnapshot) error {
	return WriteTraceEventsMeta(w, name, snap, nil)
}

// WriteTraceEventsMeta is WriteTraceEvents with extra otherData entries —
// exporter context like the producing request's resource cost. Keys in
// extra must not collide with the exporter's own ("droppedSpans"); values
// are copied verbatim.
func WriteTraceEventsMeta(w io.Writer, name string, snap TimelineSnapshot, extra map[string]string) error {
	events := make([]TraceEvent, 0, len(snap.Spans)+2)
	events = append(events, processNameEvent(1, name))
	events = append(events, spanEvents(snap.Spans, 1, 0)...)
	dropped := snap.Dropped

	peers := canonicalPeers(snap.Peers)
	pid := 1
	for i := 0; i < len(peers); {
		// One process track per distinct peer; a peer that served several
		// shard tasks of the scatter contributes all of them to its track.
		j := i
		for j < len(peers) && peers[j].Peer == peers[i].Peer {
			j++
		}
		pid++
		events = append(events, processNameEvent(pid, "peer "+peers[i].Peer))
		var spans []SpanRecord
		for k := i; k < j; k++ {
			pt := &peers[k]
			off := pt.AlignOffset()
			for _, s := range pt.Snapshot.Spans {
				s.StartNS += off
				spans = append(spans, s)
			}
			dropped += pt.Snapshot.Dropped
			for _, ev := range pt.Events {
				events = append(events, TraceEvent{
					Name: ev.Name, Ph: "i", S: "p",
					Ts: float64(ev.AtNS) / 1e3, Pid: pid, Tid: 0, Cat: "shard",
				})
			}
		}
		events = append(events, spanEvents(spans, pid, 0)...)
		i = j
	}

	f := traceEventFile{TraceEvents: events, DisplayTimeUnit: "ms"}
	if dropped > 0 || len(extra) > 0 {
		f.OtherData = make(map[string]string, len(extra)+1)
		maps.Copy(f.OtherData, extra)
		if dropped > 0 {
			f.OtherData["droppedSpans"] = strconv.FormatInt(dropped, 10)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// spanEvents renders spans as "X" events on pid's thread lanes, numbered
// from firstLane.
func spanEvents(records []SpanRecord, pid, firstLane int) []TraceEvent {
	spans := append([]SpanRecord(nil), records...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].DurNS > spans[j].DurNS // enclosing spans first
	})
	lanes := assignLanes(spans)

	events := make([]TraceEvent, 0, len(spans))
	for i, s := range spans {
		ev := TraceEvent{
			Name: s.Phase,
			Ph:   "X",
			Ts:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.DurNS) / 1e3,
			Pid:  pid,
			Tid:  firstLane + lanes[i],
			Cat:  s.Phase,
		}
		if s.Label != "" {
			ev.Name = s.Phase + " " + s.Label
		}
		if s.Merges != 0 || s.Prunes != 0 {
			ev.Args = map[string]any{
				"mergeUS": float64(s.MergeNS) / 1e3,
				"merges":  s.Merges,
				"prunes":  s.Prunes,
			}
		}
		events = append(events, ev)
	}
	return events
}

// assignLanes spreads spans (sorted by start, enclosing-first) over thread
// lanes greedily: each span takes the lowest lane that is free at its
// start, where a lane is free once every span previously placed on it has
// ended. A span may also stack on an open span of a different phase that
// contains it (the run total over its phases), so trace viewers render the
// real nesting — but never on a same-phase sibling, because two concurrent
// mining tasks can be interval-contained in each other without one nesting
// in the other, and those must fan out to separate worker lanes.
func assignLanes(spans []SpanRecord) []int {
	type open struct {
		end   int64
		phase string
	}
	lanes := make([]int, len(spans))
	var laneStacks [][]open // per lane, stack of still-open spans
	for i, s := range spans {
		end := s.StartNS + s.DurNS
		placed := false
		for l := range laneStacks {
			// Pop spans that ended before this one starts.
			st := laneStacks[l]
			for len(st) > 0 && st[len(st)-1].end <= s.StartNS {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || (end <= st[len(st)-1].end && s.Phase != st[len(st)-1].phase) {
				laneStacks[l] = append(st, open{end, s.Phase})
				lanes[i] = l
				placed = true
				break
			}
			laneStacks[l] = st
		}
		if !placed {
			laneStacks = append(laneStacks, []open{{end, s.Phase}})
			lanes[i] = len(laneStacks) - 1
		}
	}
	return lanes
}

// ValidateTraceEvents parses Chrome trace-event JSON (the object form
// WriteTraceEvents emits) and checks every event is well-formed: a known
// type, a name, and non-negative timing. It returns the number of span
// ("X") events, so callers can assert a trace is non-trivial.
func ValidateTraceEvents(r io.Reader) (spans int, err error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f traceEventFile
	if err := dec.Decode(&f); err != nil {
		return 0, fmt.Errorf("trace-event JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace-event JSON: no traceEvents")
	}
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			// Metadata events carry no timing.
		case "i":
			// Instant annotations (retry/failure marks on peer tracks).
			if ev.Ts < 0 {
				return 0, fmt.Errorf("trace-event JSON: event %d (%q) has negative timing ts=%v", i, ev.Name, ev.Ts)
			}
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				return 0, fmt.Errorf("trace-event JSON: event %d (%q) has negative timing ts=%v dur=%v", i, ev.Name, ev.Ts, ev.Dur)
			}
			spans++
		default:
			return 0, fmt.Errorf("trace-event JSON: event %d has unsupported phase type %q", i, ev.Ph)
		}
		if ev.Name == "" {
			return 0, fmt.Errorf("trace-event JSON: event %d has no name", i)
		}
	}
	if spans == 0 {
		return 0, fmt.Errorf("trace-event JSON: no span (\"X\") events")
	}
	return spans, nil
}
