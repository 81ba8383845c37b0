package core

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"github.com/recurpat/rp/internal/tsdb"
)

// randomTS builds a sorted duplicate-free timestamp list from fuzz input.
func randomTS(rng *rand.Rand, maxLen int, maxTS int64) []int64 {
	n := rng.IntN(maxLen + 1)
	seen := make(map[int64]struct{}, n)
	var ts []int64
	for len(ts) < n {
		v := rng.Int64N(maxTS) + 1
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		ts = append(ts, v)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// randomDB builds a small random database: nItems items, nTS candidate
// timestamps, each item present at each timestamp with probability density.
func randomDB(rng *rand.Rand, nItems, nTS int, density float64) *tsdb.DB {
	b := tsdb.NewBuilder()
	names := make([]string, nItems)
	for i := range names {
		names[i] = string(rune('a' + i))
		b.Dict().Intern(names[i])
	}
	for ts := int64(1); ts <= int64(nTS); ts++ {
		for _, name := range names {
			if rng.Float64() < density {
				b.Add(name, ts)
			}
		}
	}
	return b.Build()
}

func TestIntervalPartitionProperties(t *testing.T) {
	f := func(seed uint64) bool {
		local := rand.New(rand.NewPCG(seed, 42))
		ts := randomTS(local, 60, 200)
		per := local.Int64N(20) + 1
		ivs := Intervals(ts, per)

		// Intervals cover exactly the timestamps, in order.
		total := 0
		for i, iv := range ivs {
			if iv.PS <= 0 || iv.Start > iv.End {
				return false
			}
			total += iv.PS
			if i > 0 {
				// Runs are separated by gaps strictly greater than per.
				if iv.Start-ivs[i-1].End <= per {
					return false
				}
			}
		}
		if total != len(ts) {
			return false
		}
		// Within a run every consecutive gap is <= per: verify against the
		// raw list.
		k := 0
		for _, iv := range ivs {
			run := ts[k : k+iv.PS]
			if run[0] != iv.Start || run[len(run)-1] != iv.End {
				return false
			}
			for i := 1; i < len(run); i++ {
				if run[i]-run[i-1] > per {
					return false
				}
			}
			k += iv.PS
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestErecUpperBoundsRecurrence(t *testing.T) {
	// Property 1: Erec(X) >= Rec(X) for every threshold combination.
	f := func(seed uint64) bool {
		local := rand.New(rand.NewPCG(seed, 7))
		ts := randomTS(local, 80, 300)
		per := local.Int64N(25) + 1
		minPS := local.IntN(6) + 1
		rec, _ := Recurrence(ts, per, minPS)
		return Erec(ts, per, minPS) >= rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestErecBoundSound(t *testing.T) {
	// The support bound the miner checks before building a union never
	// rejects a list the candidate check would accept: with pruning on,
	// Erec(ts) <= erecBound(len(ts)); with it off, the bound is the whole
	// check, passing exactly the lists of at least MinPS occurrences.
	f := func(seed uint64) bool {
		local := rand.New(rand.NewPCG(seed, 29))
		ts := randomTS(local, 80, 300)
		for _, disable := range []bool{false, true} {
			o := Options{
				Per:                local.Int64N(25) + 1,
				MinPS:              local.IntN(8) + 1,
				MinRec:             local.IntN(4) + 1,
				DisableErecPruning: disable,
			}
			bound := o.erecBound(len(ts))
			if disable && (bound >= o.MinRec) != (len(ts) >= o.MinPS) {
				return false
			}
			if !disable && Erec(ts, o.Per, o.MinPS) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestErecAntiMonotone(t *testing.T) {
	// Property 2: removing timestamps (as any superset pattern does) can
	// only lower Erec.
	f := func(seed uint64) bool {
		local := rand.New(rand.NewPCG(seed, 13))
		ts := randomTS(local, 80, 300)
		per := local.Int64N(25) + 1
		minPS := local.IntN(6) + 1
		// Random subset of ts, preserving order.
		var sub []int64
		for _, v := range ts {
			if local.Float64() < 0.6 {
				sub = append(sub, v)
			}
		}
		return Erec(ts, per, minPS) >= Erec(sub, per, minPS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRecurrenceMatchesIntervalFilter(t *testing.T) {
	// Recurrence must equal "count Intervals with PS >= minPS" and return
	// exactly those intervals.
	f := func(seed uint64) bool {
		local := rand.New(rand.NewPCG(seed, 23))
		ts := randomTS(local, 80, 300)
		per := local.Int64N(25) + 1
		minPS := local.IntN(6) + 1
		rec, ipi := Recurrence(ts, per, minPS)
		var want []Interval
		for _, iv := range Intervals(ts, per) {
			if iv.PS >= minPS {
				want = append(want, iv)
			}
		}
		if rec != len(want) || len(ipi) != len(want) {
			return false
		}
		for i := range want {
			if ipi[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// minersAgree runs every miner on db with o and fails the test on any
// disagreement with the brute-force oracle.
func minersAgree(t *testing.T, db *tsdb.DB, o Options, tag string) {
	t.Helper()
	oracle, err := MineBruteForce(db, o)
	if err != nil {
		t.Fatalf("%s: oracle: %v", tag, err)
	}
	type miner struct {
		name string
		run  func() (*Result, error)
	}
	miners := []miner{
		{"RP-growth", func() (*Result, error) { return Mine(db, o) }},
		{"vertical", func() (*Result, error) { return MineVertical(db, o) }},
		{"RP-growth parallel", func() (*Result, error) {
			op := o
			op.Parallelism = 3
			return Mine(db, op)
		}},
		{"RP-growth no pruning", func() (*Result, error) {
			op := o
			op.DisableErecPruning = true
			return Mine(db, op)
		}},
		{"RP-growth lexicographic", func() (*Result, error) {
			op := o
			op.ItemOrder = Lexicographic
			return Mine(db, op)
		}},
	}
	for _, m := range miners {
		got, err := m.run()
		if err != nil {
			t.Fatalf("%s: %s: %v", tag, m.name, err)
		}
		if !got.Equal(oracle) {
			t.Fatalf("%s: %s disagrees with oracle:\ngot  %v\nwant %v",
				tag, m.name, formatAll(db, got.Patterns), formatAll(db, oracle.Patterns))
		}
	}
}

func TestMinersAgainstOracleRandomDBs(t *testing.T) {
	rng := rand.New(rand.NewPCG(2025, 7))
	runs := 60
	if testing.Short() {
		runs = 15
	}
	for i := 0; i < runs; i++ {
		nItems := rng.IntN(7) + 2
		nTS := rng.IntN(60) + 10
		density := 0.1 + rng.Float64()*0.5
		db := randomDB(rng, nItems, nTS, density)
		if db.Len() == 0 {
			continue
		}
		o := Options{
			Per:    rng.Int64N(8) + 1,
			MinPS:  rng.IntN(4) + 1,
			MinRec: rng.IntN(3) + 1,
		}
		minersAgree(t, db, o, "random DB")
	}
}

func TestMinersAgainstOracleSparseRareItems(t *testing.T) {
	// Rare-item shape: a couple of very frequent items plus several rare
	// items that appear only inside short bursts, the regime the model's
	// rare-item tolerance targets (paper Section 5.2).
	rng := rand.New(rand.NewPCG(99, 3))
	for i := 0; i < 25; i++ {
		b := tsdb.NewBuilder()
		nTS := int64(80)
		for ts := int64(1); ts <= nTS; ts++ {
			if rng.Float64() < 0.7 {
				b.Add("x", ts)
			}
			if rng.Float64() < 0.6 {
				b.Add("y", ts)
			}
		}
		// Rare items bursting in two windows each.
		for _, rare := range []string{"r1", "r2", "r3"} {
			for k := 0; k < 2; k++ {
				start := rng.Int64N(nTS-12) + 1
				for ts := start; ts < start+10; ts++ {
					if rng.Float64() < 0.8 {
						b.Add(rare, ts)
					}
				}
			}
		}
		db := b.Build()
		o := Options{Per: rng.Int64N(3) + 1, MinPS: rng.IntN(4) + 2, MinRec: rng.IntN(2) + 1}
		minersAgree(t, db, o, "rare items")
	}
}

func TestMineVerticalAgreesOnLargerRandomDBs(t *testing.T) {
	// Beyond the oracle's reach: RP-growth vs the vertical miner on larger
	// random databases. Two independent implementations agreeing on the
	// full output (measures included) is strong evidence of correctness.
	rng := rand.New(rand.NewPCG(11, 17))
	runs := 10
	if testing.Short() {
		runs = 3
	}
	for i := 0; i < runs; i++ {
		nItems := rng.IntN(20) + 10
		nTS := rng.IntN(800) + 200
		db := randomDB(rng, nItems, nTS, 0.05+rng.Float64()*0.25)
		o := Options{
			Per:    rng.Int64N(15) + 1,
			MinPS:  rng.IntN(5) + 2,
			MinRec: rng.IntN(3) + 1,
		}
		a, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}
		bRes, err := MineVertical(db, o)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(bRes) {
			t.Fatalf("RP-growth and vertical disagree on run %d (%d vs %d patterns)",
				i, len(a.Patterns), len(bRes.Patterns))
		}
		p, err := Mine(db, Options{Per: o.Per, MinPS: o.MinPS, MinRec: o.MinRec, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(p) {
			t.Fatalf("sequential and parallel RP-growth disagree on run %d", i)
		}
	}
}

func TestMineSubsetOfCandidates(t *testing.T) {
	// Every recurring pattern's every item must be a candidate item, and the
	// pattern's own Erec must pass the bound (soundness of Definition 11).
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 20; i++ {
		db := randomDB(rng, rng.IntN(8)+2, rng.IntN(80)+20, 0.3)
		o := Options{Per: rng.Int64N(6) + 1, MinPS: rng.IntN(3) + 1, MinRec: rng.IntN(3) + 1}
		list := BuildRPList(db, o)
		res, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Patterns {
			for _, it := range p.Items {
				if !list.IsCandidate(it) {
					t.Fatalf("pattern %s contains non-candidate item %d", p.Format(db.Dict), it)
				}
			}
			ts := db.TSList(p.Items)
			if got := Erec(ts, o.Per, o.MinPS); got < o.MinRec {
				t.Fatalf("pattern %s has Erec %d < minRec %d", p.Format(db.Dict), got, o.MinRec)
			}
			if got := len(ts); got != p.Support {
				t.Fatalf("pattern %s support %d, scan says %d", p.Format(db.Dict), p.Support, got)
			}
		}
	}
}
