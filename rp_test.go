package rp

import (
	"bytes"
	"strings"
	"testing"
)

// paperEvents is the running example of the paper as an event sequence.
func paperEvents() EventSequence {
	rows := map[int64]string{
		1: "abg", 2: "acd", 3: "abef", 4: "abcd", 5: "cdefg", 6: "efg",
		7: "abcg", 9: "cd", 10: "cdef", 11: "abef", 12: "abcdefg", 14: "abg",
	}
	var events EventSequence
	for ts, items := range rows {
		for _, r := range items {
			events = append(events, Event{Item: string(r), TS: ts})
		}
	}
	return events
}

func TestMineFacadePaperExample(t *testing.T) {
	db := FromEvents(paperEvents())
	patterns, err := Mine(db, Options{Per: 2, MinPS: 3, MinRec: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 8 {
		t.Fatalf("got %d patterns, want the 8 of Table 2", len(patterns))
	}
	var ab *Pattern
	for i := range patterns {
		if len(patterns[i].Items) == 2 &&
			patterns[i].Items[0] == "a" && patterns[i].Items[1] == "b" {
			ab = &patterns[i]
		}
	}
	if ab == nil {
		t.Fatal("{a,b} missing")
	}
	if ab.Support != 7 || ab.Recurrence != 2 {
		t.Errorf("{a,b} = %+v, want sup 7 rec 2", ab)
	}
	want := []Interval{{Start: 1, End: 4, PS: 3}, {Start: 11, End: 14, PS: 3}}
	if len(ab.Intervals) != 2 || ab.Intervals[0] != want[0] || ab.Intervals[1] != want[1] {
		t.Errorf("{a,b} intervals = %v, want %v", ab.Intervals, want)
	}
}

func TestMineFacadeRejectsBadOptions(t *testing.T) {
	db := FromEvents(paperEvents())
	if _, err := Mine(db, Options{}); err == nil {
		t.Error("zero options must be rejected")
	}
	if _, err := MineRaw(db, Options{Per: -1, MinPS: 1, MinRec: 1}); err == nil {
		t.Error("negative per must be rejected")
	}
}

func TestFacadeRoundTripAndStats(t *testing.T) {
	db := FromEvents(paperEvents())
	var buf bytes.Buffer
	if err := WriteDB(&buf, db); err != nil {
		t.Fatal(err)
	}
	db2, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := ComputeStats(db), ComputeStats(db2)
	if s1 != s2 {
		t.Errorf("round trip changed stats: %v vs %v", s1, s2)
	}
	if s1.Transactions != 12 || s1.DistinctItems != 7 {
		t.Errorf("stats = %+v", s1)
	}
}

func TestMinPSFromPercentFacade(t *testing.T) {
	db := FromEvents(paperEvents())
	if got := MinPSFromPercent(db, 25); got != 3 {
		t.Errorf("25%% of 12 transactions = %d, want 3", got)
	}
	if got := MinPSFromPercent(db, 0.0001); got != 1 {
		t.Errorf("tiny percentage must clamp to 1, got %d", got)
	}
}

func TestBuilderFacade(t *testing.T) {
	b := NewBuilder()
	b.Add("x", 1)
	b.Add("y", 1)
	b.Add("x", 3)
	db := b.Build()
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	patterns, err := Mine(db, Options{Per: 2, MinPS: 2, MinRec: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range patterns {
		if len(p.Items) == 1 && p.Items[0] == "x" {
			found = true
		}
	}
	if !found {
		t.Errorf("x should recur: %+v", patterns)
	}
}

func TestReadDBRejectsGarbage(t *testing.T) {
	if _, err := ReadDB(strings.NewReader("garbage line\n")); err == nil {
		t.Error("garbage input must fail")
	}
}

func TestMineFuncFacade(t *testing.T) {
	db := FromEvents(paperEvents())
	o := Options{Per: 2, MinPS: 3, MinRec: 2}
	var streamed []Pattern
	if err := MineFunc(db, o, func(p Pattern) bool {
		streamed = append(streamed, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	batch, err := Mine(db, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d patterns, batch %d", len(streamed), len(batch))
	}
	for _, p := range streamed {
		if len(p.Items) == 0 || p.Support == 0 {
			t.Errorf("malformed streamed pattern %+v", p)
		}
	}
	if err := MineFunc(db, Options{}, func(Pattern) bool { return true }); err == nil {
		t.Error("invalid options must fail")
	}
}

func TestWriteDBMappedFacade(t *testing.T) {
	db := FromEvents(paperEvents())
	var buf bytes.Buffer
	if err := WriteDBMapped(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDB(&buf) // auto-detects the mapped layout
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("mapped round trip produced an invalid DB: %v", err)
	}
	if got.Fingerprint() != db.Fingerprint() {
		t.Errorf("mapped round trip changed the fingerprint: %016x vs %016x", got.Fingerprint(), db.Fingerprint())
	}
}
