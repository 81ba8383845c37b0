package tsdb

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("a")
	b := d.Intern("b")
	if a == b {
		t.Fatal("distinct names must get distinct IDs")
	}
	if got := d.Intern("a"); got != a {
		t.Errorf("re-interning a = %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if d.Name(a) != "a" || d.Name(b) != "b" {
		t.Error("Name round-trip failed")
	}
	if _, ok := d.Lookup("c"); ok {
		t.Error("Lookup of unknown name must report !ok")
	}
	if got := d.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names = %v", got)
	}
}

func TestDictionaryNamePanicsOnUnknownID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name of unassigned ID should panic")
		}
	}()
	NewDictionary().Name(3)
}

func TestEventSequenceSortAndPointSequence(t *testing.T) {
	s := EventSequence{
		{Item: "b", TS: 3}, {Item: "a", TS: 1}, {Item: "a", TS: 3},
		{Item: "a", TS: 2}, {Item: "a", TS: 1}, // duplicate event
	}
	s.Sort()
	for i := 1; i < len(s); i++ {
		if s[i-1].TS > s[i].TS {
			t.Fatalf("not sorted at %d: %v", i, s)
		}
	}
	got := s.PointSequence("a")
	want := []int64{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PointSequence(a) = %v, want %v", got, want)
	}
	if got := s.PointSequence("zzz"); got != nil {
		t.Errorf("PointSequence of absent item = %v, want nil", got)
	}
}

func TestBuilderGroupsByTimestamp(t *testing.T) {
	b := NewBuilder()
	b.Add("x", 5)
	b.Add("y", 5)
	b.Add("x", 5) // duplicate collapses
	b.Add("z", 2)
	db := b.Build()
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	if db.Trans[0].TS != 2 || db.Trans[1].TS != 5 {
		t.Errorf("transactions not time-ordered: %+v", db.Trans)
	}
	if len(db.Trans[1].Items) != 2 {
		t.Errorf("duplicate add not collapsed: %+v", db.Trans[1])
	}
	if err := db.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderAddIDs(t *testing.T) {
	b := NewBuilder()
	x := b.Dict().Intern("x")
	y := b.Dict().Intern("y")
	b.AddIDs(1, y, x)
	b.AddIDs(1, x)
	db := b.Build()
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
	if !reflect.DeepEqual(db.Trans[0].Items, []ItemID{x, y}) {
		t.Errorf("items = %v, want sorted [%d %d]", db.Trans[0].Items, x, y)
	}
}

func TestTransactionContains(t *testing.T) {
	tr := Transaction{TS: 1, Items: []ItemID{1, 3, 5, 9}}
	cases := []struct {
		pattern []ItemID
		want    bool
	}{
		{nil, true},
		{[]ItemID{1}, true},
		{[]ItemID{9}, true},
		{[]ItemID{1, 9}, true},
		{[]ItemID{1, 3, 5, 9}, true},
		{[]ItemID{2}, false},
		{[]ItemID{1, 2}, false},
		{[]ItemID{0, 1}, false},
		{[]ItemID{9, 10}, false},
	}
	for _, c := range cases {
		if got := tr.Contains(c.pattern); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.pattern, got, c.want)
		}
	}
}

func TestTSListMatchesPointSequences(t *testing.T) {
	// TS^X from the DB must equal the intersection of the items' point
	// sequences in the original event sequence (the "no information loss"
	// claim of paper Section 3).
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		var events EventSequence
		names := []string{"a", "b", "c", "d"}
		for ts := int64(1); ts <= 40; ts++ {
			for _, n := range names {
				if rng.Float64() < 0.4 {
					events = append(events, Event{Item: n, TS: ts})
				}
			}
		}
		db := FromEvents(events)
		pattern, err := db.InternPattern([]string{"a", "b"})
		if err != nil {
			// One of the items never occurred; fine.
			return true
		}
		got := db.TSList(pattern)
		// Reference: timestamps present in both point sequences.
		pa := events.PointSequence("a")
		pb := events.PointSequence("b")
		inB := make(map[int64]bool, len(pb))
		for _, ts := range pb {
			inB[ts] = true
		}
		var want []int64
		for _, ts := range pa {
			if inB[ts] {
				want = append(want, ts)
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsCorruptDBs(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("a")
	b := d.Intern("b")
	cases := []struct {
		name string
		db   *DB
	}{
		{"nil dict", &DB{}},
		{"unsorted ts", &DB{Dict: d, Trans: []Transaction{
			{TS: 5, Items: []ItemID{a}}, {TS: 3, Items: []ItemID{a}}}}},
		{"duplicate ts", &DB{Dict: d, Trans: []Transaction{
			{TS: 5, Items: []ItemID{a}}, {TS: 5, Items: []ItemID{b}}}}},
		{"empty transaction", &DB{Dict: d, Trans: []Transaction{{TS: 1}}}},
		{"unknown item", &DB{Dict: d, Trans: []Transaction{
			{TS: 1, Items: []ItemID{99}}}}},
		{"unsorted items", &DB{Dict: d, Trans: []Transaction{
			{TS: 1, Items: []ItemID{b, a}}}}},
		{"duplicate items", &DB{Dict: d, Trans: []Transaction{
			{TS: 1, Items: []ItemID{a, a}}}}},
	}
	for _, c := range cases {
		if err := c.db.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt DB", c.name)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	in := "1\ta b g\n2\ta c d\n14\ta b g\n"
	db, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d, want 3", db.Len())
	}
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	db2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("round trip changed length: %d vs %d", db2.Len(), db.Len())
	}
	for i := range db.Trans {
		if db.Trans[i].TS != db2.Trans[i].TS {
			t.Errorf("ts %d changed to %d", db.Trans[i].TS, db2.Trans[i].TS)
		}
		if !reflect.DeepEqual(db.PatternNames(db.Trans[i].Items), db2.PatternNames(db2.Trans[i].Items)) {
			t.Errorf("items changed at ts %d", db.Trans[i].TS)
		}
	}
}

func TestReadToleratesCommentsAndBlankLines(t *testing.T) {
	in := "# header\n\n1\ta b\n# another\n2 c d\n"
	db, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{
		"notanumber\ta b\n",
		"5\n",
		"5\t \n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) should fail", in)
		}
	}
}

func TestComputeStats(t *testing.T) {
	db, err := Read(strings.NewReader("1\ta b\n5\ta\n9\ta b c\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(db)
	if s.Transactions != 3 || s.DistinctItems != 3 || s.Events != 6 || s.MaxTxLen != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgTxLen != 2.0 {
		t.Errorf("AvgTxLen = %f, want 2.0", s.AvgTxLen)
	}
	if s.FirstTS != 1 || s.LastTS != 9 {
		t.Errorf("span = [%d,%d], want [1,9]", s.FirstTS, s.LastTS)
	}
	if s.String() == "" {
		t.Error("String should render")
	}
}

func TestItemSupportAndTopItems(t *testing.T) {
	db, err := Read(strings.NewReader("1\ta b\n2\ta\n3\ta b c\n"))
	if err != nil {
		t.Fatal(err)
	}
	top := db.TopItems(2)
	if len(top) != 2 || top[0].Name != "a" || top[0].Support != 3 || top[1].Name != "b" {
		t.Errorf("TopItems = %+v", top)
	}
	all := db.TopItems(100)
	if len(all) != 3 {
		t.Errorf("TopItems(100) = %+v", all)
	}
}

func TestDailyFrequency(t *testing.T) {
	db, err := Read(strings.NewReader("1\ta\n2\ta b\n11\ta\n25\tb\n"))
	if err != nil {
		t.Fatal(err)
	}
	got := db.DailyFrequency("a", 10)
	want := []int{2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DailyFrequency(a,10) = %v, want %v", got, want)
	}
	if db.DailyFrequency("zzz", 10) != nil {
		t.Error("unknown item should yield nil")
	}
	if db.DailyFrequency("a", 0) != nil {
		t.Error("non-positive bucket should yield nil")
	}
}

func TestFormatPatternAndInternPattern(t *testing.T) {
	db, err := Read(strings.NewReader("1\tb a\n"))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.InternPattern([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	got := db.FormatPattern(ids)
	// IDs are sorted; first-seen order interned "b" before "a".
	if got != "{b,a}" && got != "{a,b}" {
		t.Errorf("FormatPattern = %q", got)
	}
	if _, err := db.InternPattern([]string{"nope"}); err == nil {
		t.Error("InternPattern must reject unknown items")
	}
}

func TestRebase(t *testing.T) {
	db, err := Read(strings.NewReader("1\ta b\n5\tb c\n9\ta c\n12\tc\n"))
	if err != nil {
		t.Fatal(err)
	}
	shifted := db.Rebase(100)
	if shifted.Trans[0].TS != 101 || shifted.Trans[3].TS != 112 {
		t.Errorf("Rebase failed: %v", shifted.Trans)
	}
	if err := shifted.Validate(); err != nil {
		t.Errorf("rebased DB invalid: %v", err)
	}
	// Negative shifts work too.
	back := shifted.Rebase(-100)
	for i := range db.Trans {
		if back.Trans[i].TS != db.Trans[i].TS {
			t.Fatal("round trip shift failed")
		}
	}
}
