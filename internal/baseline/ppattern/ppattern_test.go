package ppattern

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
		{Per: 0, MinSup: 1},
		{Per: 1, Window: -1, MinSup: 1},
		{Per: 1, MinSup: 0},
		{Per: 1, MinSup: 1, MaxLen: -1},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", o)
		}
	}
	if _, err := Mine(&tsdb.DB{Dict: tsdb.NewDictionary()}, Options{}); err == nil {
		t.Error("Mine must reject invalid options")
	}
}

func TestPeriodicAppearanceCounting(t *testing.T) {
	// 'a' at 1,2,3,10,11: gaps 1,1,7,1 -> 3 periodic appearances at per=2.
	db := mustDB(t, "1\ta\n2\ta\n3\ta\n10\ta\n11\ta\n")
	res, err := Mine(db, Options{Per: 2, MinSup: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 || res.Patterns[0].Periodic != 3 {
		t.Fatalf("got %+v, want one pattern with 3 periodic appearances", res.Patterns)
	}
	// minSup=4 filters it.
	res, err = Mine(db, Options{Per: 2, MinSup: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("got %+v, want none", res.Patterns)
	}
	// The window tolerance admits the gap of 7 at per=6, w=1.
	res, err = Mine(db, Options{Per: 6, Window: 1, MinSup: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 || res.Patterns[0].Periodic != 4 {
		t.Fatalf("window tolerance: got %+v", res.Patterns)
	}
}

// bruteForce enumerates all itemsets and filters by the model definition.
func bruteForce(db *tsdb.DB, o Options) []Pattern {
	bound := o.Per + o.Window
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
			if p := core.PeriodicAppearances(ext, bound); p >= o.MinSup {
				if o.MaxLen == 0 || len(next) <= o.MaxLen {
					cp := make([]tsdb.ItemID, len(next))
					copy(cp, next)
					out = append(out, Pattern{Items: cp, Support: len(ext), Periodic: p})
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
	rng := rand.New(rand.NewPCG(17, 4))
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
		o := Options{Per: rng.Int64N(6) + 1, Window: rng.Int64N(2), MinSup: rng.IntN(5) + 1}
		got, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(db, o)
		if !reflect.DeepEqual(got.Patterns, want) {
			t.Fatalf("run %d (o=%+v): got %d patterns, want %d\ngot  %+v\nwant %+v",
				run, o, len(got.Patterns), len(want), got.Patterns, want)
		}
	}
}

func TestPeriodicAppearancesAntiMonotone(t *testing.T) {
	// The completeness of periodic-first rests on the periodic-appearance
	// count being anti-monotone for gap periodicity; verify on random lists.
	rng := rand.New(rand.NewPCG(8, 8))
	for run := 0; run < 200; run++ {
		var ts []int64
		cur := int64(0)
		for i := 0; i < rng.IntN(40); i++ {
			cur += rng.Int64N(10) + 1
			ts = append(ts, cur)
		}
		var sub []int64
		for _, v := range ts {
			if rng.Float64() < 0.6 {
				sub = append(sub, v)
			}
		}
		per := rng.Int64N(12) + 1
		if core.PeriodicAppearances(sub, per) > core.PeriodicAppearances(ts, per) {
			t.Fatalf("anti-monotonicity violated: ts=%v sub=%v per=%d", ts, sub, per)
		}
	}
}

func TestExplosionAtLowMinSup(t *testing.T) {
	// The phenomenon Table 8 documents: with a long period and low minSup,
	// every combination of frequent items becomes a p-pattern.
	b := tsdb.NewBuilder()
	for ts := int64(1); ts <= 60; ts++ {
		for i := 0; i < 6; i++ {
			if (ts+int64(i))%2 == 0 || ts%3 == 0 {
				b.Add(string(rune('a'+i)), ts)
			}
		}
	}
	db := b.Build()
	pp, err := Mine(db, Options{Per: 30, MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := core.Mine(db, core.Options{Per: 2, MinPS: 5, MinRec: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Patterns) <= len(rp.Patterns) {
		t.Errorf("expected p-pattern explosion: %d p-patterns vs %d recurring",
			len(pp.Patterns), len(rp.Patterns))
	}
	if pp.MaxLen() < 3 {
		t.Errorf("expected long p-patterns, max len %d", pp.MaxLen())
	}
}

func TestLimitTruncates(t *testing.T) {
	db := mustDB(t, "1\ta b c d\n2\ta b c d\n3\ta b c d\n4\ta b c d\n")
	res, err := Mine(db, Options{Per: 2, MinSup: 2, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || len(res.Patterns) != 3 {
		t.Errorf("Limit=3: truncated=%v count=%d", res.Truncated, len(res.Patterns))
	}
	full, err := Mine(db, Options{Per: 2, MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || len(full.Patterns) != 15 {
		t.Errorf("unlimited: truncated=%v count=%d, want all 15 subsets", full.Truncated, len(full.Patterns))
	}
}

// TestLimitKeepsExplorationPrefix pins which patterns a truncated run
// keeps: the first Limit found by the depth-first search over items in
// support-descending order, ties by ItemID. Here b, c and d tie at support
// 4 ahead of a, so the search visits b, bc, bcd (not periodic), abc, bd,
// ab, ... in that order.
func TestLimitKeepsExplorationPrefix(t *testing.T) {
	db := mustDB(t, "1\ta b c d\n2\ta b c\n3\tb d\n4\ta c d\n5\tb c d\n")
	for _, algo := range []struct {
		name string
		mine func(*tsdb.DB, Options) (*Result, error)
	}{{"periodic-first", Mine}, {"association-first", MineAssociationFirst}} {
		for _, c := range []struct {
			limit int
			want  string
		}{
			{3, "b:4:3 b,c:3:1 a,b,c:2:1"},
			{4, "b:4:3 b,c:3:1 b,d:3:2 a,b,c:2:1"},
			{5, "b:4:3 a,b:2:1 b,c:3:1 b,d:3:2 a,b,c:2:1"},
		} {
			res, err := algo.mine(db, Options{Per: 2, MinSup: 1, Limit: c.limit})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, p := range res.Patterns {
				got = append(got, fmt.Sprintf("%s:%d:%d", strings.Join(db.PatternNames(p.Items), ","), p.Support, p.Periodic))
			}
			if !res.Truncated || strings.Join(got, " ") != c.want {
				t.Errorf("%s Limit=%d: truncated=%v kept %q, want %q", algo.name, c.limit, res.Truncated, strings.Join(got, " "), c.want)
			}
		}
	}
}

func TestAssociationFirstMatchesPeriodicFirst(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 5))
	for run := 0; run < 30; run++ {
		b := tsdb.NewBuilder()
		nItems := rng.IntN(6) + 2
		nTS := rng.IntN(60) + 10
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
		o := Options{Per: rng.Int64N(6) + 1, Window: rng.Int64N(2), MinSup: rng.IntN(5) + 1}
		pf, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}
		af, err := MineAssociationFirst(db, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pf.Patterns, af.Patterns) {
			t.Fatalf("run %d (%+v): periodic-first %d patterns, association-first %d",
				run, o, len(pf.Patterns), len(af.Patterns))
		}
	}
	if _, err := MineAssociationFirst(&tsdb.DB{Dict: tsdb.NewDictionary()}, Options{}); err == nil {
		t.Error("MineAssociationFirst must reject invalid options")
	}
}
