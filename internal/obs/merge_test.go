package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// peerFixture builds one synthetic grafted peer: a recorded shard run with
// a queue span and a mine span, stamped with the given clock references.
func peerFixture(peer string, sendNS, recvNS, elapsedNS int64, events ...PeerEvent) PeerTimeline {
	return PeerTimeline{
		Peer:      peer,
		SendNS:    sendNS,
		RecvNS:    recvNS,
		ElapsedNS: elapsedNS,
		Snapshot: TimelineSnapshot{
			Cap: 8,
			Spans: []SpanRecord{
				{Phase: "queue", StartNS: 0, DurNS: 50},
				{Phase: "mine", Label: "shard", StartNS: 50, DurNS: elapsedNS - 50, Merges: 2, Prunes: 1},
			},
		},
		Events: events,
	}
}

func TestAlignOffset(t *testing.T) {
	// The peer's handling window centers inside the send→receive window:
	// send=1000, recv=5000, handling=2000 → the network halves split the
	// remaining 2000ns evenly and the peer epoch lands at 2000.
	pt := peerFixture("a", 1000, 5000, 2000)
	if off := pt.AlignOffset(); off != 2000 {
		t.Errorf("AlignOffset = %d, want 2000", off)
	}
	// A peer clock that claims more handling time than the whole exchange
	// took (clock skew, coarse timers) clamps to the send instant rather
	// than rendering spans before the request left.
	pt = peerFixture("a", 1000, 5000, 60000)
	if off := pt.AlignOffset(); off != 1000 {
		t.Errorf("skewed AlignOffset = %d, want clamp to SendNS=1000", off)
	}
	// Without a reported ElapsedNS the span extent stands in for the
	// handling width.
	pt = peerFixture("a", 1000, 5000, 2000)
	pt.ElapsedNS = 0 // spans end at 1950... rebuild with a known extent
	pt.Snapshot.Spans = []SpanRecord{{Phase: "mine", StartNS: 0, DurNS: 2000}}
	if off := pt.AlignOffset(); off != 2000 {
		t.Errorf("fallback AlignOffset = %d, want 2000", off)
	}
	// Aligned spans always land inside the send→receive window.
	pt = peerFixture("b", 700, 1300, 400)
	off := pt.AlignOffset()
	for _, s := range pt.Snapshot.Spans {
		if start := s.StartNS + off; start < 700 || start+s.DurNS > 1300+400 {
			t.Errorf("aligned span [%d,%d] escapes the exchange window", start, start+s.DurNS)
		}
	}
}

// TestMergeOrderInvariance is the determinism property the fleet merge
// promises: whatever order peer responses arrive in (AddPeer call order),
// the snapshot and the rendered Chrome trace are byte-identical, because
// grafts are canonicalized by (peer, send time).
func TestMergeOrderInvariance(t *testing.T) {
	grafts := []PeerTimeline{
		peerFixture("http://b:1", 2000, 9000, 4000, PeerEvent{Name: "retry 1 -> http://b:1", AtNS: 1500}),
		peerFixture("http://a:1", 1000, 8000, 5000),
		peerFixture("http://a:1", 3000, 7000, 3000), // same peer, second task
	}
	perms := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	var want []byte
	for _, perm := range perms {
		tl := NewTimeline(8)
		tl.record(SpanRecord{Phase: "total", StartNS: 0, DurNS: 10000})
		for _, i := range perm {
			tl.AddPeer(grafts[i])
		}
		var buf bytes.Buffer
		if err := WriteTraceEvents(&buf, "coordinator", tl.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("arrival order %v changed the rendered trace:\n%s\nvs\n%s", perm, buf.Bytes(), want)
		}
	}
	if _, err := ValidateTraceEvents(bytes.NewReader(want)); err != nil {
		t.Fatalf("merged fleet trace fails validation: %v", err)
	}
}

// TestFleetTraceRender pins the merged trace's structure: one process
// track per distinct peer, peer spans shifted onto the coordinator clock,
// client annotations as instant events, and dropped counts summed
// fleet-wide.
func TestFleetTraceRender(t *testing.T) {
	tl := NewTimeline(8)
	tl.record(SpanRecord{Phase: "total", StartNS: 0, DurNS: 10000})
	a := peerFixture("http://a:1", 1000, 8000, 5000)
	a.Snapshot.Dropped = 3
	b := peerFixture("http://b:1", 2000, 9000, 4000, PeerEvent{Name: "fail http://b:1", AtNS: 2500})
	tl.AddPeer(b)
	tl.AddPeer(a)

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, "coordinator", tl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []TraceEvent      `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	spansByPid := map[int]int{}
	instants := 0
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				names[ev.Pid], _ = ev.Args["name"].(string)
			}
		case "X":
			spansByPid[ev.Pid]++
		case "i":
			instants++
			if ev.S != "p" {
				t.Errorf("instant event scope = %q, want process-wide \"p\"", ev.S)
			}
		}
	}
	if names[1] != "coordinator" {
		t.Errorf("pid 1 named %q, want coordinator", names[1])
	}
	// Canonical order: peers sort by URL, so a gets pid 2 and b pid 3.
	if names[2] != "peer http://a:1" || names[3] != "peer http://b:1" {
		t.Errorf("peer tracks misnamed/misordered: %v", names)
	}
	if spansByPid[2] != 2 || spansByPid[3] != 2 {
		t.Errorf("peer span counts = %v, want 2 per peer", spansByPid)
	}
	if instants != 1 {
		t.Errorf("instant events = %d, want 1", instants)
	}
	// Peer a's graft: offset = 1000+(7000-5000)/2 = 2000, so its queue span
	// starts at 2000ns = 2µs on peer a's track.
	found := false
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Pid == 2 && ev.Name == "queue" {
			found = true
			if ev.Ts != 2.0 {
				t.Errorf("aligned queue span at %vµs, want 2µs", ev.Ts)
			}
		}
	}
	if !found {
		t.Error("peer a's queue span missing from its track")
	}
	if f.OtherData["droppedSpans"] != "3" {
		t.Errorf("droppedSpans = %q, want fleet-wide sum 3", f.OtherData["droppedSpans"])
	}
}

func TestTimelineRecordSpanAndElapsed(t *testing.T) {
	tl := NewTimeline(4)
	start := Now()
	if el := tl.Elapsed(start); el < 0 {
		t.Errorf("Elapsed of a post-epoch instant = %d, want >= 0", el)
	}
	tl.RecordSpan("queue", "slot", start, 5*time.Millisecond)
	snap := tl.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Phase != "queue" || snap.Spans[0].Label != "slot" {
		t.Fatalf("RecordSpan retained %+v", snap.Spans)
	}
	if snap.Spans[0].DurNS != int64(5*time.Millisecond) {
		t.Errorf("DurNS = %d, want 5ms", snap.Spans[0].DurNS)
	}

	// Nil receivers stay inert across the merge API.
	var nilTL *Timeline
	nilTL.RecordSpan("queue", "", Now(), time.Millisecond)
	nilTL.AddPeer(PeerTimeline{Peer: "x"})
	if el := nilTL.Elapsed(Now()); el != 0 {
		t.Errorf("nil Elapsed = %d, want 0", el)
	}
	if s := nilTL.Snapshot(); len(s.Spans) != 0 || len(s.Peers) != 0 {
		t.Errorf("nil Snapshot = %+v, want empty", s)
	}
}

func TestParsePhase(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := ParsePhase(p.String())
		if !ok || got != p {
			t.Errorf("ParsePhase(%q) = %v/%v, want %v", p.String(), got, ok, p)
		}
	}
	if _, ok := ParsePhase("no-such-phase"); ok {
		t.Error("ParsePhase accepted an unknown name")
	}
}

func TestValidateTraceEventsInstant(t *testing.T) {
	ok := `{"traceEvents":[
		{"name":"mine","ph":"X","ts":0,"dur":1,"pid":1,"tid":0},
		{"name":"retry 1","ph":"i","s":"p","ts":5,"pid":2,"tid":0}
	],"displayTimeUnit":"ms"}`
	if spans, err := ValidateTraceEvents(strings.NewReader(ok)); err != nil || spans != 1 {
		t.Errorf("instant event rejected or miscounted: spans=%d err=%v", spans, err)
	}
	bad := `{"traceEvents":[
		{"name":"mine","ph":"X","ts":0,"dur":1,"pid":1,"tid":0},
		{"name":"retry 1","ph":"i","ts":-5,"pid":2,"tid":0}
	],"displayTimeUnit":"ms"}`
	if _, err := ValidateTraceEvents(strings.NewReader(bad)); err == nil {
		t.Error("negative-timestamp instant event validated")
	}
}
