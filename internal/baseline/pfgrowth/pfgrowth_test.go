package pfgrowth

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

func mustDB(t *testing.T, text string) *tsdb.DB {
	t.Helper()
	db, err := tsdb.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestValidate(t *testing.T) {
	for _, o := range []Options{
		{MinSup: 0, MaxPer: 1},
		{MinSup: 1, MaxPer: 0},
		{MinSup: 1, MaxPer: 1, MaxLen: -1},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", o)
		}
	}
	if err := (Options{MinSup: 1, MaxPer: 1}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	if _, err := Mine(&tsdb.DB{Dict: tsdb.NewDictionary()}, Options{}); err == nil {
		t.Error("Mine must reject invalid options")
	}
}

func TestEmptyDB(t *testing.T) {
	db := &tsdb.DB{Dict: tsdb.NewDictionary()}
	res, err := Mine(db, Options{MinSup: 1, MaxPer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("empty DB produced %d patterns", len(res.Patterns))
	}
	if res.MaxLen() != 0 {
		t.Errorf("MaxLen of empty result = %d", res.MaxLen())
	}
}

func TestPeriodicFrequentSimple(t *testing.T) {
	// 'a' appears every timestamp: periodicity 1. 'b' appears at 1 and 5:
	// max periodicity 4. 'c' appears once at 1: lead-out gap 4.
	db := mustDB(t, "1\ta b c\n2\ta\n3\ta\n4\ta\n5\ta b\n")
	res, err := Mine(db, Options{MinSup: 2, MaxPer: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 {
		t.Fatalf("got %d patterns, want 1 (just 'a'): %+v", len(res.Patterns), res.Patterns)
	}
	p := res.Patterns[0]
	if p.Support != 5 || p.Periodicity != 1 {
		t.Errorf("pattern a = %+v", p)
	}
	// Relax the period: 'b' (periodicity 4) and 'ab' now qualify.
	res, err = Mine(db, Options{MinSup: 2, MaxPer: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 3 {
		t.Fatalf("got %d patterns, want 3: %+v", len(res.Patterns), res.Patterns)
	}
}

func TestBoundaryGapsCount(t *testing.T) {
	// Item appears densely but only in the second half: the lead-in gap
	// from the database start must disqualify it.
	db := mustDB(t, "1\tx\n2\tx\n10\ty\n11\ty\n12\ty x\n")
	res, err := Mine(db, Options{MinSup: 2, MaxPer: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		for _, id := range p.Items {
			if db.Dict.Name(id) == "y" {
				t.Errorf("y has lead-in gap 9 > 3 but was reported: %+v", p)
			}
		}
	}
}

// bruteForce enumerates all itemsets and filters by the model definition.
func bruteForce(db *tsdb.DB, o Options) []Pattern {
	first, last := db.Span()
	all := db.ItemTSLists()
	var items []tsdb.ItemID
	for id, ts := range all {
		if len(ts) > 0 {
			items = append(items, tsdb.ItemID(id))
		}
	}
	var out []Pattern
	var grow func(start int, prefix []tsdb.ItemID, ts []int64)
	grow = func(start int, prefix []tsdb.ItemID, ts []int64) {
		for i := start; i < len(items); i++ {
			var ext []int64
			if len(prefix) == 0 {
				ext = all[items[i]]
			} else {
				ext = tsdb.IntersectTS(nil, ts, all[items[i]])
			}
			next := append(prefix[:len(prefix):len(prefix)], items[i])
			if len(ext) >= o.MinSup && core.MaxPeriodicity(ext, first, last) <= o.MaxPer {
				if o.MaxLen == 0 || len(next) <= o.MaxLen {
					cp := make([]tsdb.ItemID, len(next))
					copy(cp, next)
					out = append(out, Pattern{Items: cp, Support: len(ext),
						Periodicity: core.MaxPeriodicity(ext, first, last)})
				}
			}
			if len(ext) > 0 {
				grow(i+1, next, ext)
			}
		}
	}
	grow(0, nil, nil)
	sort.Slice(out, func(i, j int) bool { return tsdb.CompareItemsets(out[i].Items, out[j].Items) < 0 })
	return out
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 33))
	for run := 0; run < 40; run++ {
		b := tsdb.NewBuilder()
		nItems := rng.IntN(6) + 2
		nTS := rng.IntN(50) + 10
		for ts := int64(1); ts <= int64(nTS); ts++ {
			for i := 0; i < nItems; i++ {
				if rng.Float64() < 0.4 {
					b.Add(string(rune('a'+i)), ts)
				}
			}
		}
		db := b.Build()
		if db.Len() == 0 {
			continue
		}
		o := Options{MinSup: rng.IntN(4) + 1, MaxPer: rng.Int64N(8) + 1}
		got, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(db, o)
		if !reflect.DeepEqual(got.Patterns, want) {
			t.Fatalf("run %d: got %d patterns, want %d\ngot  %+v\nwant %+v",
				run, len(got.Patterns), len(want), got.Patterns, want)
		}
	}
}

func TestMaxLenBound(t *testing.T) {
	db := mustDB(t, "1\ta b c\n2\ta b c\n3\ta b c\n")
	res, err := Mine(db, Options{MinSup: 2, MaxPer: 3, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLen() != 2 {
		t.Errorf("MaxLen bound ignored: longest = %d", res.MaxLen())
	}
	full, err := Mine(db, Options{MinSup: 2, MaxPer: 3})
	if err != nil {
		t.Fatal(err)
	}
	if full.MaxLen() != 3 {
		t.Errorf("unbounded longest = %d, want 3", full.MaxLen())
	}
}

// TestLimitKeepsExplorationPrefix pins which patterns a truncated run
// keeps: the first Limit found by the depth-first search over items in
// support-descending order, ties by ItemID. Here b, c and d tie at support
// 4 ahead of a, so the search visits b, bc, bcd (periodicity 4, cut), abc,
// bd, ab, ... in that order.
func TestLimitKeepsExplorationPrefix(t *testing.T) {
	db := mustDB(t, "1\ta b c d\n2\ta b c\n3\tb d\n4\ta c d\n5\tb c d\n")
	for _, c := range []struct {
		limit int
		want  string
	}{
		{3, "b:4:2 b,c:3:3 a,b,c:2:3"},
		{4, "b:4:2 b,c:3:3 b,d:3:2 a,b,c:2:3"},
		{5, "b:4:2 a,b:2:3 b,c:3:3 b,d:3:2 a,b,c:2:3"},
	} {
		res, err := Mine(db, Options{MinSup: 2, MaxPer: 3, Limit: c.limit})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range res.Patterns {
			got = append(got, fmt.Sprintf("%s:%d:%d", strings.Join(db.PatternNames(p.Items), ","), p.Support, p.Periodicity))
		}
		if !res.Truncated || strings.Join(got, " ") != c.want {
			t.Errorf("Limit=%d: truncated=%v kept %q, want %q", c.limit, res.Truncated, strings.Join(got, " "), c.want)
		}
	}
	full, err := Mine(db, Options{MinSup: 2, MaxPer: 3})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || len(full.Patterns) != 12 {
		t.Errorf("unlimited: truncated=%v count=%d, want 12", full.Truncated, len(full.Patterns))
	}
}
