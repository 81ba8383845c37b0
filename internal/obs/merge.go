package obs

import (
	"cmp"
	"slices"
	"time"
)

// Fleet-wide timeline merge: a scatter-gather coordinator grafts each shard
// peer's recorded TimelineSnapshot into its own Timeline, so one flight
// record covers the whole fleet. Peers run on their own clocks, so each
// grafted snapshot carries the coordinator-clock send and receive instants
// of the request that produced it; AlignOffset maps the peer's epoch into
// the coordinator's timebase from those. The merge is deterministic: grafts
// may arrive in any order (one goroutine per shard task), and Snapshot
// canonicalizes so identical grafts render byte-identically.

// PeerEvent is a point annotation on a peer's lane — a retry, failed
// attempt or failover observed by the shard client while driving the
// task that produced the peer's snapshot. AtNS is on the coordinator's
// timeline clock (the client observed the event locally).
type PeerEvent struct {
	Name string `json:"name"`
	AtNS int64  `json:"atNS"`
}

// PeerTimeline is one peer's recorded snapshot as grafted into a
// coordinator's timeline, with the clock references needed to place it.
type PeerTimeline struct {
	// Peer identifies the lane, e.g. the peer's base URL.
	Peer string `json:"peer"`
	// SendNS and RecvNS are when the coordinator sent the shard request and
	// received the response, in nanoseconds on the coordinator's timeline
	// clock. They bracket everything the peer's snapshot records.
	SendNS int64 `json:"sendNS"`
	RecvNS int64 `json:"recvNS"`
	// ElapsedNS is the peer-reported handling duration (its clock
	// reference): how long the peer spent between receiving the request and
	// writing the response. It is authoritative over the snapshot's span
	// extent, which undercounts once spans are dropped.
	ElapsedNS int64 `json:"elapsedNS,omitempty"`
	// Snapshot is the peer's recorded timeline, spans relative to the
	// peer's own epoch.
	Snapshot TimelineSnapshot `json:"snapshot"`
	// Events are the shard client's per-task annotations (retries, failed
	// attempts, failovers), already on the coordinator's clock.
	Events []PeerEvent `json:"events,omitempty"`
}

// AlignOffset maps the peer's timeline epoch onto the coordinator's clock:
// the peer's handling window is centered inside the observed send→receive
// window, splitting the network round trip symmetrically (the classic
// NTP-style offset estimate, with the peer's handling time standing in for
// the processing delay). The result is clamped to SendNS so a peer whose
// reported duration exceeds the round trip — clock skew, or a response
// that raced the measurement — still renders inside the window it provably
// happened in.
func (pt *PeerTimeline) AlignOffset() int64 {
	span := pt.ElapsedNS
	if span == 0 {
		for _, s := range pt.Snapshot.Spans {
			if end := s.StartNS + s.DurNS; end > span {
				span = end
			}
		}
	}
	off := pt.SendNS + (pt.RecvNS-pt.SendNS-span)/2
	return max(off, pt.SendNS)
}

// AddPeer grafts one peer's snapshot into the timeline. Safe for
// concurrent use (the coordinator grafts from its per-task goroutines);
// a nil timeline discards the graft.
func (tl *Timeline) AddPeer(pt PeerTimeline) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	tl.peers = append(tl.peers, pt)
	tl.mu.Unlock()
}

// Elapsed converts an instant read from Now into nanoseconds since the
// timeline's epoch — the coordinate peer grafts and their events use. A
// nil timeline reports zero.
func (tl *Timeline) Elapsed(t time.Time) int64 {
	if tl == nil {
		return 0
	}
	return tl.startNS(t)
}

// RecordSpan retains an ad-hoc span on the timeline for work outside the
// phase taxonomy — e.g. a serving peer's admission wait ("queue"). It
// counts against the retention cap like any other span; a nil timeline
// discards it.
func (tl *Timeline) RecordSpan(phase, label string, start time.Time, d time.Duration) {
	if tl == nil {
		return
	}
	tl.record(SpanRecord{Phase: phase, Label: label, StartNS: tl.startNS(start), DurNS: int64(d)})
}

// canonicalPeers sorts grafted peer timelines into their canonical order —
// by peer name, then send time — so snapshots taken after grafts that
// raced each other are identical. Events within a graft sort by time.
func canonicalPeers(peers []PeerTimeline) []PeerTimeline {
	if len(peers) == 0 {
		return nil
	}
	out := make([]PeerTimeline, len(peers))
	for i, pt := range peers {
		pt.Events = slices.Clone(pt.Events)
		slices.SortStableFunc(pt.Events, func(a, b PeerEvent) int {
			if c := cmp.Compare(a.AtNS, b.AtNS); c != 0 {
				return c
			}
			return cmp.Compare(a.Name, b.Name)
		})
		out[i] = pt
	}
	slices.SortStableFunc(out, func(a, b PeerTimeline) int {
		if c := cmp.Compare(a.Peer, b.Peer); c != 0 {
			return c
		}
		return cmp.Compare(a.SendNS, b.SendNS)
	})
	return out
}
