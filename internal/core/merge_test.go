package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

// unionOracle is what a union of tid bags must produce: the sorted
// concatenation of the bags, mapped through ts.
func unionOracle(ts []int64, bags [][]int32) []int64 {
	var all []int32
	for _, b := range bags {
		all = append(all, b...)
	}
	slices.Sort(all)
	out := []int64{}
	for _, tid := range all {
		out = append(out, ts[tid])
	}
	return out
}

// tidMap is a strictly increasing tid -> timestamp map for n transactions,
// with gaps so a tid/timestamp mix-up cannot go unnoticed.
func tidMap(rng *rand.Rand, n int) []int64 {
	ts := make([]int64, n)
	t := int64(0)
	for i := range ts {
		t += 1 + rng.Int64N(5)
		ts[i] = t
	}
	return ts
}

// randomBags splits a random subset of the tids [0, n) into k disjoint
// bags, each in random order.
func randomBags(rng *rand.Rand, n, k int, density float64) [][]int32 {
	bags := make([][]int32, k)
	for tid := 0; tid < n; tid++ {
		if rng.Float64() < density {
			i := rng.IntN(k)
			bags[i] = append(bags[i], int32(tid))
		}
	}
	for _, b := range bags {
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	return bags
}

// foldOf lays bags out as the tid ranges of a tree's base paths and folds
// their union through ms, as conditionalTree's Erec check does, appending
// the interesting intervals to ipi.
func foldOf(ms *mergeScratch, ts []int64, bags [][]int32, o Options, ipi []Interval) (int, []Interval) {
	t := &rpTree{ts: ts}
	var base []rankPath
	var idx []int32
	for i, b := range bags {
		lo := int32(len(t.tids))
		t.tids = append(t.tids, b...)
		base = append(base, rankPath{tlo: lo, thi: int32(len(t.tids))})
		idx = append(idx, int32(i))
	}
	erec := ms.fold(t, base, idx, o, &ipi)
	return erec, ipi
}

// checkFold fails unless folding bags through ms gives the Erec,
// recurrence and interesting intervals of their sorted union, appended
// after what ipi already held, and leaves the bitmap zero.
func checkFold(t *testing.T, ms *mergeScratch, ts []int64, bags [][]int32, o Options) {
	t.Helper()
	union := unionOracle(ts, bags)
	wantErec := Erec(union, o.Per, o.MinPS)
	wantRec, wantIPI := Recurrence(union, o.Per, o.MinPS)
	head := Interval{Start: -1, End: -1, PS: -1}
	erec, ipi := foldOf(ms, ts, bags, o, []Interval{head})
	if erec != wantErec {
		t.Fatalf("per=%d minPS=%d: fold Erec = %d, want %d (union %v)", o.Per, o.MinPS, erec, wantErec, union)
	}
	if ipi[0] != head || len(ipi)-1 != wantRec || !slices.Equal(ipi[1:], wantIPI) {
		t.Fatalf("per=%d minPS=%d: fold appended intervals %v after %v, want %d: %v (union %v)",
			o.Per, o.MinPS, ipi[1:], ipi[0], wantRec, wantIPI, union)
	}
	checkZeroBitmap(t, &ms.u)
}

// checkZeroBitmap fails unless the union bitmap is back to its idle state.
func checkZeroBitmap(t *testing.T, u *tidUnion) {
	t.Helper()
	for i, w := range u.words {
		if w != 0 {
			t.Fatalf("words[%d] = %#x after a union, want 0", i, w)
		}
	}
	for i, w := range u.summary {
		if w != 0 {
			t.Fatalf("summary[%d] = %#x after a union, want 0", i, w)
		}
	}
	if u.lo < u.hi {
		t.Fatalf("touched range [%d, %d) left open after a union", u.lo, u.hi)
	}
}

// TestTidUnion covers tid-space sizes around the word (64) and summary
// (4096) boundaries, with one reused scratch, so stale bits or a stale
// touched range from one fold would corrupt the next, and periods and
// minimum periodic supports from all-singleton runs to one long run.
func TestTidUnion(t *testing.T) {
	var ms mergeScratch
	rng := rand.New(rand.NewPCG(7, 11))
	sizes := []int{1, 63, 64, 65, 4095, 4096, 4097}
	for _, n := range append(sizes, 65, 1, 4097, 64) {
		ts := tidMap(rng, n)
		for trial := 0; trial < 40; trial++ {
			density := []float64{0, 0.02, 0.5, 1}[trial%4]
			bags := randomBags(rng, n, 1+rng.IntN(9), density)
			if trial%5 == 0 {
				// The extremes of the tid space, which land in the first
				// and last words and summary bits.
				bags[0] = append(bags[0], 0)
				if n > 1 {
					bags[len(bags)-1] = append(bags[len(bags)-1], int32(n-1))
				}
				bags = dedupe(bags)
			}
			o := Options{Per: []int64{1, 3, 5, 40}[rng.IntN(4)], MinPS: 1 + rng.IntN(6)}
			checkFold(t, &ms, ts, bags, o)
		}
	}
}

// dedupe keeps the first occurrence of each tid across the bags, so the
// bags stay disjoint.
func dedupe(bags [][]int32) [][]int32 {
	seen := map[int32]bool{}
	for i, b := range bags {
		kept := b[:0]
		for _, tid := range b {
			if !seen[tid] {
				seen[tid] = true
				kept = append(kept, tid)
			}
		}
		bags[i] = kept
	}
	return bags
}

func FuzzTidUnion(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 2, 9, 9}, uint16(10), uint8(3), uint8(2), uint8(2))
	f.Add([]byte{}, uint16(1), uint8(1), uint8(1), uint8(1))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1}, uint16(64), uint8(5), uint8(4), uint8(3))
	f.Add([]byte{0, 255, 17, 63, 64, 65, 200, 128}, uint16(4097), uint8(7), uint8(30), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, size uint16, k, per, minPS uint8) {
		n := int(size%5000) + 1
		nBags := int(k%8) + 1
		bags := make([][]int32, nBags)
		for i := 0; i+1 < len(data); i += 2 {
			tid := int32((int(data[i])<<8 | int(data[i+1])) % n)
			bags[i/2%nBags] = append(bags[i/2%nBags], tid)
		}
		bags = dedupe(bags)
		ts := tidMap(rand.New(rand.NewPCG(uint64(n), 1)), n)
		o := Options{Per: int64(per%64) + 1, MinPS: int(minPS%16) + 1}
		var ms mergeScratch
		for round := 0; round < 2; round++ {
			checkFold(t, &ms, ts, bags, o)
		}
	})
}

func TestCheckPathSpace(t *testing.T) {
	list := func(sups ...int) *RPList {
		l := &RPList{}
		for i, s := range sups {
			l.Candidates = append(l.Candidates, RPListEntry{Item: tsdb.ItemID(i), Support: s})
		}
		return l
	}
	if err := checkPathSpace(list(math.MaxInt32-1, 1)); err != nil {
		t.Errorf("checkPathSpace at the limit = %v, want nil", err)
	}
	err := checkPathSpace(list(math.MaxInt32, 1))
	if err == nil {
		t.Fatal("checkPathSpace accepted projections past int32")
	}
	if !strings.Contains(err.Error(), "projections") {
		t.Errorf("checkPathSpace error %q does not name the projections", err)
	}
}

func TestCheckTidSpace(t *testing.T) {
	for _, n := range []int64{0, 1, math.MaxInt32 - 1, math.MaxInt32} {
		if err := checkTidSpace(n); err != nil {
			t.Errorf("checkTidSpace(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int64{math.MaxInt32 + 1, math.MaxInt64} {
		err := checkTidSpace(n)
		if err == nil {
			t.Fatalf("checkTidSpace(%d) accepted a tid space past int32", n)
		}
		if !strings.Contains(err.Error(), "|TDB|") {
			t.Errorf("checkTidSpace(%d) error %q does not name |TDB|", n, err)
		}
	}
}

func TestMinerArenaReuse(t *testing.T) {
	// Two consecutive mines on the same miner state (as the worker pool
	// does rank after rank) must produce identical results: the arena reset
	// and scratch recycling may not leak state between runs.
	rng := rand.New(rand.NewPCG(21, 4))
	slabbed := 0 // trials whose mine carved conditional trees into every slab
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 6, 40, 0.35)
		o := Options{Per: 3, MinPS: 2, MinRec: 2}
		list := BuildRPList(db, o)
		if len(list.Candidates) == 0 {
			continue
		}

		fresh, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}

		var m miner
		m.o = o
		var results []*Result
		var slabCap [6]int // nodes, tids, paths, trees, orders, ranks
		for round := 0; round < 2; round++ {
			tree := buildRPTree(db, list, ShardSpec{Count: 1})
			res := &Result{}
			m.res = res
			m.stack = make([]tsdb.ItemID, 0, len(tree.order))
			stack := m.stack[:cap(m.stack)]
			for i := range stack {
				stack[i] = ^tsdb.ItemID(0)
			}
			m.mineTree(tree, m.stack[:0], 1)
			res.Canonicalize()
			results = append(results, res)
			// Every conditional tree's nodes, tids, paths, intervals,
			// header, order and rank table are reclaimed, the second
			// identical run reuses the first one's slabs, and every
			// pattern is built in the one pattern stack.
			a := &m.arena
			if len(a.nodes) != 0 || len(a.tids) != 0 || len(a.paths) != 0 || len(a.ivals) != 0 ||
				len(a.trees) != 0 || len(a.orders) != 0 || len(a.ranks) != 0 {
				t.Fatalf("trial %d round %d: arena holds %d nodes, %d tids, %d path ranks, %d intervals, %d trees, %d order items, %d ranks after the mine",
					trial, round, len(a.nodes), len(a.tids), len(a.paths), len(a.ivals), len(a.trees), len(a.orders), len(a.ranks))
			}
			caps := [6]int{cap(a.nodes), cap(a.tids), cap(a.paths), cap(a.trees), cap(a.orders), cap(a.ranks)}
			if round == 1 && caps != slabCap {
				t.Fatalf("trial %d: slab capacities (nodes, tids, paths, trees, orders, ranks) grew from %v to %v on an identical rerun",
					trial, slabCap, caps)
			}
			slabCap = caps
			longest := 0
			for _, p := range res.Patterns {
				longest = max(longest, len(p.Items))
			}
			for depth := range longest {
				if stack[depth] == ^tsdb.ItemID(0) {
					t.Fatalf("trial %d round %d: no pattern was built in slot %d of the pattern stack", trial, round, depth)
				}
			}
		}
		if slabCap[0] > 0 && slabCap[1] > 0 && slabCap[2] > 0 && slabCap[3] > 0 && slabCap[4] > 0 && slabCap[5] > 0 {
			slabbed++
		}
		for i, res := range results {
			if renderResult(res) != renderResult(fresh) {
				t.Fatalf("trial %d round %d: reused miner diverged\nreused:\n%s\nfresh:\n%s",
					trial, i, renderResult(res), renderResult(fresh))
			}
		}
		checkZeroBitmap(t, &m.ms.u)
	}
	if slabbed == 0 {
		t.Fatal("no trial built a conditional tree; the slabs went unchecked")
	}
}
