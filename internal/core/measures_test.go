package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

func TestIntervalsEdgeCases(t *testing.T) {
	if got := Intervals(nil, 5); got != nil {
		t.Errorf("nil input: %v", got)
	}
	got := Intervals([]int64{7}, 5)
	want := []Interval{{Start: 7, End: 7, PS: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("singleton: %v, want %v", got, want)
	}
	// All gaps equal to per exactly: one run (<= is inclusive).
	got = Intervals([]int64{0, 5, 10, 15}, 5)
	if len(got) != 1 || got[0].PS != 4 {
		t.Errorf("boundary gaps: %v", got)
	}
	// All gaps just over per: all singleton runs.
	got = Intervals([]int64{0, 6, 12, 18}, 5)
	if len(got) != 4 {
		t.Errorf("over-per gaps: %v", got)
	}
}

func TestRecurrenceEdgeCases(t *testing.T) {
	rec, ipi := Recurrence(nil, 5, 1)
	if rec != 0 || ipi != nil {
		t.Errorf("nil input: %d %v", rec, ipi)
	}
	rec, ipi = Recurrence([]int64{3}, 5, 1)
	if rec != 1 || len(ipi) != 1 {
		t.Errorf("singleton at minPS=1: %d %v", rec, ipi)
	}
	rec, _ = Recurrence([]int64{3}, 5, 2)
	if rec != 0 {
		t.Errorf("singleton at minPS=2: %d", rec)
	}
}

func TestErecEdgeCases(t *testing.T) {
	if got := Erec(nil, 5, 2); got != 0 {
		t.Errorf("nil input: %d", got)
	}
	// One run of 7 at minPS 3: floor(7/3) = 2.
	if got := Erec([]int64{1, 2, 3, 4, 5, 6, 7}, 1, 3); got != 2 {
		t.Errorf("Erec of run 7/minPS 3 = %d, want 2", got)
	}
}

func TestMaxPeriodicity(t *testing.T) {
	// Boundary gaps count: first occurrence at 5 with span starting at 0
	// gives a lead-in of 5.
	if got := MaxPeriodicity([]int64{5, 6, 7}, 0, 10); got != 5 {
		t.Errorf("lead-in: %d, want 5", got)
	}
	if got := MaxPeriodicity([]int64{0, 1, 2}, 0, 10); got != 8 {
		t.Errorf("lead-out: %d, want 8", got)
	}
	if got := MaxPeriodicity([]int64{0, 4, 10}, 0, 10); got != 6 {
		t.Errorf("interior: %d, want 6", got)
	}
	if got := MaxPeriodicity(nil, 3, 10); got != 7 {
		t.Errorf("empty list spans the whole window: %d, want 7", got)
	}
}

func TestPeriodicAppearances(t *testing.T) {
	if got := PeriodicAppearances([]int64{1, 3, 10, 11}, 2); got != 2 {
		t.Errorf("got %d, want 2 (gaps 2 and 1)", got)
	}
	if got := PeriodicAppearances(nil, 2); got != 0 {
		t.Errorf("nil: %d", got)
	}
	if got := PeriodicAppearances([]int64{4}, 2); got != 0 {
		t.Errorf("singleton: %d", got)
	}
}

func TestPatternStringAndFormat(t *testing.T) {
	dict := tsdb.NewDictionary()
	a := dict.Intern("alpha")
	b := dict.Intern("beta")
	p := Pattern{
		Items:      []tsdb.ItemID{a, b},
		Support:    7,
		Recurrence: 2,
		Intervals:  []Interval{{Start: 1, End: 4, PS: 3}, {Start: 11, End: 14, PS: 3}},
	}
	s := p.String()
	if !strings.Contains(s, "sup=7") || !strings.Contains(s, "rec=2") {
		t.Errorf("String = %q", s)
	}
	f := p.Format(dict)
	if !strings.Contains(f, "alpha,beta") || !strings.Contains(f, "{[1,4]:3}, {[11,14]:3}") {
		t.Errorf("Format = %q", f)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestResultEqualAndMaxLen(t *testing.T) {
	mk := func() *Result {
		return &Result{Patterns: []Pattern{
			{Items: []tsdb.ItemID{0}, Support: 3, Recurrence: 1,
				Intervals: []Interval{{Start: 1, End: 3, PS: 3}}},
			{Items: []tsdb.ItemID{0, 1}, Support: 2, Recurrence: 1,
				Intervals: []Interval{{Start: 1, End: 2, PS: 2}}},
		}}
	}
	a, b := mk(), mk()
	if !a.Equal(b) {
		t.Error("identical results must be equal")
	}
	if a.MaxLen() != 2 {
		t.Errorf("MaxLen = %d", a.MaxLen())
	}
	b.Patterns[1].Support = 99
	if a.Equal(b) {
		t.Error("support difference must be detected")
	}
	b = mk()
	b.Patterns[1].Intervals[0].PS = 1
	if a.Equal(b) {
		t.Error("interval difference must be detected")
	}
	b = mk()
	b.Patterns = b.Patterns[:1]
	if a.Equal(b) {
		t.Error("length difference must be detected")
	}
	empty := &Result{}
	if empty.MaxLen() != 0 {
		t.Errorf("empty MaxLen = %d", empty.MaxLen())
	}
}

func TestCanonicalizeOrder(t *testing.T) {
	r := &Result{Patterns: []Pattern{
		{Items: []tsdb.ItemID{2, 3}},
		{Items: []tsdb.ItemID{1}},
		{Items: []tsdb.ItemID{0, 5}},
		{Items: []tsdb.ItemID{0}},
	}}
	r.Canonicalize()
	want := [][]tsdb.ItemID{{0}, {1}, {0, 5}, {2, 3}}
	for i, p := range r.Patterns {
		if !reflect.DeepEqual(p.Items, want[i]) {
			t.Fatalf("position %d = %v, want %v", i, p.Items, want[i])
		}
	}
}

func TestVerticalMaxLen(t *testing.T) {
	db := paperDB(t)
	o := paperOptions()
	o.MaxLen = 1
	res, err := MineVertical(db, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if p.Len() > 1 {
			t.Errorf("MaxLen=1 produced %v", p.Items)
		}
	}
	if len(res.Patterns) != 5 {
		t.Errorf("got %d single-item patterns, want 5", len(res.Patterns))
	}
}

func TestBruteForceRefusesLargeAlphabets(t *testing.T) {
	b := tsdb.NewBuilder()
	for i := 0; i < bruteForceMaxItems+1; i++ {
		b.AddIDs(int64(i+1), tsdb.ItemID(i))
		b.Dict().Intern(string(rune('a' + i)))
	}
	if _, err := MineBruteForce(b.Build(), paperOptions()); err == nil {
		t.Error("brute force must refuse > 20 items")
	}
}
