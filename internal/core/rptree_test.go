package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

// collectTS is TS^beta for the item at rank r as the miner reads it: the
// union of the subtree ranges of the rank's nodes, through the tid ->
// timestamp map.
func (t *rpTree) collectTS(ms *mergeScratch, r int, dst []int64) []int64 {
	t.stage(ms, r)
	return ms.merge(t.ts, dst)
}

// rootPath is node n's root path read from the tree's path slab: the
// ranks from the root down to n, empty for the root.
func (t *rpTree) rootPath(n int32) []int32 {
	nd := t.arena.nodes[n]
	return t.paths[nd.pathLo:nd.pathHi]
}

// rank is node n's rank, the last of its root path.
func (t *rpTree) rank(n int32) int32 {
	p := t.rootPath(n)
	return p[len(p)-1]
}

// isChild reports whether node c's root path is node n's plus one rank.
func (t *rpTree) isChild(c, n int32) bool {
	pc, pn := t.rootPath(c), t.rootPath(n)
	return len(pc) == len(pn)+1 && slices.Equal(pc[:len(pn)], pn)
}

// ownLen is the number of tail tids node n holds itself: its range minus
// its children's ranges.
func (t *rpTree) ownLen(n int32) int32 {
	own := t.arena.nodes[n].hi - t.arena.nodes[n].lo
	for c := t.root + 1; c < int32(len(t.arena.nodes)); c++ {
		if t.isChild(c, n) {
			own -= t.arena.nodes[c].hi - t.arena.nodes[c].lo
		}
	}
	return own
}

// pathItems lists the items on the path from the root to node n, root-most
// first.
func (t *rpTree) pathItems(n int32) []tsdb.ItemID {
	var items []tsdb.ItemID
	for _, r := range t.rootPath(n) {
		items = append(items, t.order[r])
	}
	return items
}

// buildPaperTree constructs the RP-tree of the running example (paper
// Figure 5(b)).
func buildPaperTree(t *testing.T) (*tsdb.DB, *RPList, *rpTree) {
	t.Helper()
	db := paperDB(t)
	list := BuildRPList(db, paperOptions())
	tree := buildRPTree(db, list)
	return db, list, tree
}

func TestRPTreeStructurePaperExample(t *testing.T) {
	db, list, tree := buildPaperTree(t)
	// Six candidate items -> six header chains.
	if len(tree.headers) != 6 {
		t.Fatalf("headers = %d, want 6", len(tree.headers))
	}
	// Every transaction's full candidate projection timestamps must be
	// recoverable: the ranges of each item's nodes cover exactly the
	// transactions containing that item.
	for rank, item := range tree.order {
		var ts []int64
		for n := tree.headers[rank]; n != nilNode; n = tree.arena.nodes[n].link {
			nd := tree.arena.nodes[n]
			for _, tid := range tree.tids[nd.lo:nd.hi] {
				ts = append(ts, tree.ts[tid])
			}
		}
		slices.Sort(ts)
		want := db.TSList([]tsdb.ItemID{item})
		if !reflect.DeepEqual(ts, want) {
			t.Errorf("item %s range ts = %v, want %v", db.Dict.Name(item), ts, want)
		}
	}
	// Figure 5(b): the root's children are exactly the distinct leading
	// items of the candidate projections... verify against the actual
	// projections instead of hard-coding.
	roots := map[tsdb.ItemID]bool{}
	var proj []tsdb.ItemID
	for _, tr := range db.Trans {
		proj = list.Project(proj[:0], tr.Items)
		if len(proj) > 0 {
			roots[proj[0]] = true
		}
	}
	got := map[tsdb.ItemID]bool{}
	for n := tree.root + 1; n < int32(len(tree.arena.nodes)); n++ {
		if tree.isChild(n, tree.root) {
			item := tree.order[tree.rank(n)]
			if got[item] {
				t.Errorf("root has two children for item %s", db.Dict.Name(item))
			}
			got[item] = true
		}
	}
	if !reflect.DeepEqual(got, roots) {
		t.Errorf("root children = %v, want %v", got, roots)
	}
	// The root's range spans every transaction with a candidate item.
	if nd := tree.arena.nodes[tree.root]; nd.lo != 0 || int(nd.hi) != len(tree.tids) {
		t.Errorf("root range [%d, %d), want [0, %d)", nd.lo, nd.hi, len(tree.tids))
	}
}

func TestRPTreeNoSupportCountsOnlyTailTS(t *testing.T) {
	// Paper Section 4.2.1: only tail nodes carry ts-lists. Each tid sits
	// in its tail node's own slots, the head of the node's range: every
	// transaction (each has a candidate item here) appears exactly once,
	// at the node whose root path is its candidate projection, and maps to
	// its own timestamp.
	db, list, tree := buildPaperTree(t)
	if len(tree.tids) != db.Len() {
		t.Fatalf("tree holds %d tids, want %d (one per transaction)", len(tree.tids), db.Len())
	}
	seen := make([]bool, db.Len())
	var proj []tsdb.ItemID
	for n := range tree.arena.nodes {
		nd := tree.arena.nodes[n]
		for _, tid := range tree.tids[nd.lo : nd.lo+tree.ownLen(int32(n))] {
			if seen[tid] {
				t.Fatalf("tid %d recorded twice", tid)
			}
			seen[tid] = true
			proj = list.Project(proj[:0], db.Trans[tid].Items)
			if path := tree.pathItems(int32(n)); !reflect.DeepEqual(path, proj) {
				t.Errorf("tid %d sits at path %v, its projection is %v", tid, path, proj)
			}
			if tree.ts[tid] != db.Trans[tid].TS {
				t.Fatalf("tid %d maps to ts %d, want %d", tid, tree.ts[tid], db.Trans[tid].TS)
			}
		}
	}
	for tid, ok := range seen {
		if !ok {
			t.Fatalf("tid %d sits in no node's own slots", tid)
		}
	}
}

func TestCollectTSMatchesScan(t *testing.T) {
	db, _, tree := buildPaperTree(t)
	var ms mergeScratch
	// Every item's collectTS, read from its nodes' ranges, equals its
	// scan ts-list: the ranges hold what push-ups would gather.
	for r, item := range tree.order {
		got := tree.collectTS(&ms, r, nil)
		want := db.TSList([]tsdb.ItemID{item})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("collectTS(%s) = %v, want %v", db.Dict.Name(item), got, want)
		}
	}
}

func TestConditionalTreePaperExample(t *testing.T) {
	// Paper Figure 6: the conditional tree for suffix item 'f' contains
	// only item 'e' (the other prefix items fail the Erec check), and the
	// ts-list of 'e' in it is TS^ef = {3,5,6,10,11,12}.
	db, _, tree := buildPaperTree(t)
	var arena nodeArena
	var ms mergeScratch
	fID, _ := db.Dict.Lookup("f")
	fRank := -1
	for r, it := range tree.order {
		if it == fID {
			fRank = r
		}
	}
	if fRank != len(tree.order)-1 {
		t.Fatalf("f should be the bottom item, got rank %d", fRank)
	}
	cond := tree.conditionalTree(&arena, &ms, paperOptions(), fRank)
	if cond == nil {
		t.Fatal("conditional tree for f is empty")
	}
	eID, _ := db.Dict.Lookup("e")
	if len(cond.order) != 1 || cond.order[0] != eID {
		names := make([]string, len(cond.order))
		for i, it := range cond.order {
			names[i] = db.Dict.Name(it)
		}
		t.Fatalf("CT_f items = %v, want [e]", names)
	}
	ts := cond.collectTS(&ms, 0, nil)
	want := []int64{3, 5, 6, 10, 11, 12}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("TS^ef = %v, want %v", ts, want)
	}
}

func TestMineStatsCounters(t *testing.T) {
	db := paperDB(t)
	o := paperOptions()
	o.CollectStats = true
	res, err := Mine(db, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CandidateItems != 6 {
		t.Errorf("CandidateItems = %d, want 6", res.Stats.CandidateItems)
	}
	if res.Stats.PatternsExamined < len(res.Patterns) {
		t.Errorf("Examined %d < %d patterns found", res.Stats.PatternsExamined, len(res.Patterns))
	}
	if res.Stats.TreeNodes == 0 || res.Stats.MaxDepth == 0 {
		t.Errorf("tree stats empty: %+v", res.Stats)
	}

	// Disabling pruning must not change output but must examine at least
	// as many patterns.
	o2 := o
	o2.DisableErecPruning = true
	res2, err := Mine(db, o2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(res2) {
		t.Error("pruning changed the result")
	}
	if res2.Stats.PatternsExamined < res.Stats.PatternsExamined {
		t.Errorf("pruning off examined fewer patterns: %d vs %d",
			res2.Stats.PatternsExamined, res.Stats.PatternsExamined)
	}
}

func TestEmptyAndDegenerateDatabases(t *testing.T) {
	empty := &tsdb.DB{Dict: tsdb.NewDictionary()}
	res, err := Mine(empty, paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("empty DB produced patterns: %v", res.Patterns)
	}
	// Single transaction: a run of one timestamp; recurring only if
	// minPS=1 and minRec=1.
	b := tsdb.NewBuilder()
	b.Add("x", 5)
	db := b.Build()
	res, err = Mine(db, Options{Per: 1, MinPS: 1, MinRec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 || res.Patterns[0].Support != 1 {
		t.Errorf("singleton DB: %v", res.Patterns)
	}
	res, err = Mine(db, Options{Per: 1, MinPS: 2, MinRec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("minPS=2 on singleton must find nothing: %v", res.Patterns)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{},
		{Per: 1},
		{Per: 1, MinPS: 1},
		{Per: -1, MinPS: 1, MinRec: 1},
		{Per: 1, MinPS: -1, MinRec: 1},
		{Per: 1, MinPS: 1, MinRec: -1},
		{Per: 1, MinPS: 1, MinRec: 1, MaxLen: -1},
		{Per: 1, MinPS: 1, MinRec: 1, Parallelism: -2},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", o)
		}
		if _, err := Mine(&tsdb.DB{Dict: tsdb.NewDictionary()}, o); err == nil {
			t.Errorf("Mine with %+v should fail", o)
		}
	}
	if err := (Options{Per: 1, MinPS: 1, MinRec: 1}).Validate(); err != nil {
		t.Errorf("minimal valid options rejected: %v", err)
	}
}

func TestMinPSFromPercent(t *testing.T) {
	db := paperDB(t) // 12 transactions
	cases := []struct {
		pct  float64
		want int
	}{
		{0, 1}, {1, 1}, {25, 3}, {50, 6}, {100, 12}, {200, 24},
	}
	for _, c := range cases {
		if got := MinPSFromPercent(db, c.pct); got != c.want {
			t.Errorf("MinPSFromPercent(%v%%) = %d, want %d", c.pct, got, c.want)
		}
	}
}

func TestLemma2TreeSizeBound(t *testing.T) {
	// Paper Lemma 2: the RP-tree size (nodes, without the root) is bounded
	// by the total size of the candidate item projections.
	db := paperDB(t)
	list := BuildRPList(db, paperOptions())
	tree := buildRPTree(db, list)
	bound := 0
	var proj []tsdb.ItemID
	for _, tr := range db.Trans {
		proj = list.Project(proj[:0], tr.Items)
		bound += len(proj)
	}
	if tree.nodes > bound {
		t.Errorf("tree has %d nodes, Lemma 2 bound is %d", tree.nodes, bound)
	}
	// Prefix sharing should make it strictly smaller here.
	if tree.nodes >= bound {
		t.Errorf("no prefix sharing: %d nodes vs bound %d", tree.nodes, bound)
	}
	// The slab holds exactly the created nodes plus the root.
	if len(tree.arena.nodes) != tree.nodes+1 {
		t.Errorf("slab has %d entries, want %d nodes + 1 root", len(tree.arena.nodes), tree.nodes)
	}
}

// checkRanges verifies the subtree-range layout of tree, whose database is
// the transactions members of db: every member whose projection onto the
// tree's items is non-empty sits in tree.tids exactly once; every node's
// range holds exactly the members whose projection passes through the node
// (brute force); a node's children's ranges are disjoint and nested in its
// range, after the node's own tail tids; every node's root path, read from
// the path slab, is distinct and is the projection prefix of each member in
// its range; and nodes are in pre-order: a node's descendants are exactly
// the block of node indices that follows it.
func checkRanges(t *testing.T, db *tsdb.DB, tree *rpTree, members []int32) {
	t.Helper()
	inTree := map[tsdb.ItemID]bool{}
	for _, it := range tree.order {
		inTree[it] = true
	}
	rank := map[tsdb.ItemID]int{}
	for r, it := range tree.order {
		rank[it] = r
	}
	// proj[tid] is the member's projection, in tree rank order.
	proj := map[int32][]tsdb.ItemID{}
	for _, tid := range members {
		var p []tsdb.ItemID
		for _, it := range db.Trans[tid].Items {
			if inTree[it] {
				p = append(p, it)
			}
		}
		slices.SortFunc(p, func(x, y tsdb.ItemID) int { return rank[x] - rank[y] })
		if len(p) > 0 {
			proj[tid] = p
		}
	}

	seen := map[int32]int{}
	for _, tid := range tree.tids {
		seen[tid]++
	}
	for tid, n := range seen {
		if n != 1 {
			t.Fatalf("tid %d appears %d times in tree.tids", tid, n)
		}
		if _, ok := proj[tid]; !ok {
			t.Fatalf("tid %d is in tree.tids but its projection is empty or it is no member", tid)
		}
	}
	if len(seen) != len(proj) {
		t.Fatalf("tree.tids holds %d transactions, want %d", len(seen), len(proj))
	}

	nodes := tree.arena.nodes
	paths := map[string]int32{}
	for n := tree.root; n < int32(len(nodes)); n++ {
		nd := nodes[n]
		if nd.lo < 0 || nd.lo > nd.hi || int(nd.hi) > len(tree.tids) {
			t.Fatalf("node %d range [%d, %d) outside tids[0:%d]", n, nd.lo, nd.hi, len(tree.tids))
		}
		if n != tree.root && nd.lo == nd.hi {
			t.Fatalf("node %d has an empty range", n)
		}
		ranks := tree.rootPath(n)
		if n != tree.root && len(ranks) == 0 {
			t.Fatalf("node %d has an empty root path", n)
		}
		for i := 1; i < len(ranks); i++ {
			if ranks[i-1] >= ranks[i] {
				t.Fatalf("node %d root path %v is not strictly ascending", n, ranks)
			}
		}
		key := fmt.Sprint(ranks)
		if m, dup := paths[key]; dup {
			t.Fatalf("nodes %d and %d share the root path %v", m, n, ranks)
		}
		paths[key] = n
		path := tree.pathItems(n)
		for _, tid := range tree.tids[nd.lo:nd.hi] {
			if p := proj[tid]; len(p) < len(path) || !slices.Equal(p[:len(path)], path) {
				t.Fatalf("node %d root path %v is not the projection prefix of tid %d in its range, %v", n, path, tid, p)
			}
		}
		// Pre-order: the nodes whose root path properly extends this one's
		// are exactly the block of nodes n+1 .. n+len(desc).
		var desc []int32
		for c := tree.root; c < int32(len(nodes)); c++ {
			if pc := tree.rootPath(c); len(pc) > len(ranks) && slices.Equal(pc[:len(ranks)], ranks) {
				desc = append(desc, c)
			}
		}
		if len(desc) > 0 && (desc[0] != n+1 || desc[len(desc)-1] != n+int32(len(desc))) {
			t.Fatalf("node %d (path %v): its descendants %v are not the block of nodes after it", n, path, desc)
		}
		var want, wantOwn []int32
		for tid, p := range proj {
			if len(p) >= len(path) && slices.Equal(p[:len(path)], path) {
				want = append(want, tid)
				if len(p) == len(path) {
					wantOwn = append(wantOwn, tid)
				}
			}
		}
		got := slices.Clone(tree.tids[nd.lo:nd.hi])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("node %d (path %v) range holds %v, want %v", n, path, got, want)
		}
		own := slices.Clone(tree.tids[nd.lo : nd.lo+int32(len(wantOwn))])
		slices.Sort(own)
		slices.Sort(wantOwn)
		if !slices.Equal(own, wantOwn) {
			t.Fatalf("node %d (path %v) own slots hold %v, want its tail tids %v", n, path, own, wantOwn)
		}
		// Children tile the rest of the range without overlap.
		var kids [][2]int32
		for c := n + 1; c < int32(len(nodes)); c++ {
			if tree.isChild(c, n) {
				kids = append(kids, [2]int32{nodes[c].lo, nodes[c].hi})
			}
		}
		slices.SortFunc(kids, func(x, y [2]int32) int { return int(x[0] - y[0]) })
		at := nd.lo + int32(len(wantOwn))
		for _, k := range kids {
			if k[0] != at {
				t.Fatalf("node %d: child range [%d, %d) does not start at %d", n, k[0], k[1], at)
			}
			at = k[1]
		}
		if at != nd.hi {
			t.Fatalf("node %d: children end at %d, range ends at %d", n, at, nd.hi)
		}
	}
}

// walkRanges checks tree and, depth first, every conditional tree a mine
// of it can build — one per rank and level, a superset of those mining
// builds — against checkRanges.
func walkRanges(t *testing.T, db *tsdb.DB, o Options, tree *rpTree, members []int32, a *nodeArena, ms *mergeScratch) int {
	t.Helper()
	checkRanges(t, db, tree, members)
	built := 1
	for r := len(tree.order) - 1; r >= 0; r-- {
		mark := a.mark()
		ct := tree.conditionalTree(a, ms, o, r)
		ms.pruned = 0
		if ct != nil {
			var sub []int32
			for _, tid := range members {
				if slices.Contains(db.Trans[tid].Items, tree.order[r]) {
					sub = append(sub, tid)
				}
			}
			built += walkRanges(t, db, o, ct, sub, a, ms)
		}
		a.reset(mark)
	}
	return built
}

// checkTreeRanges builds db's initial tree under o and walks every
// conditional tree below it, with Erec pruning on and off.
func checkTreeRanges(t *testing.T, db *tsdb.DB, o Options) int {
	t.Helper()
	built := 0
	for _, off := range []bool{false, true} {
		o.DisableErecPruning = off
		list := BuildRPList(db, o)
		if len(list.Candidates) == 0 {
			continue
		}
		tree := buildRPTree(db, list)
		all := make([]int32, db.Len())
		for i := range all {
			all[i] = int32(i)
		}
		var a nodeArena
		var ms mergeScratch
		built += walkRanges(t, db, o, tree, all, &a, &ms)
	}
	return built
}

func TestTreeRanges(t *testing.T) {
	checkTreeRanges(t, paperDB(t), paperOptions())
	rng := rand.New(rand.NewPCG(14, 1))
	conditional := 0
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 3+rng.IntN(6), 20+rng.IntN(60), 0.2+0.4*rng.Float64())
		o := Options{Per: 1 + rng.Int64N(4), MinPS: 1 + rng.IntN(3), MinRec: 1 + rng.IntN(3)}
		conditional += checkTreeRanges(t, db, o) - 2
	}
	if conditional < 100 {
		t.Fatalf("only %d conditional trees checked; the random DBs are too sparse", conditional)
	}
}

func FuzzTreeRanges(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 1, 2, 3, 7}, 2, int64(2), 2, 1)
	f.Add([]byte{0, 1, 0, 1, 2, 2, 0, 1, 2, 3, 3, 3}, 2, int64(1), 1, 1)
	// Many identical projections: forty transactions {a, b, c}.
	f.Add(bytes.Repeat([]byte{0, 1, 2}, 40), 3, int64(1), 1, 1)
	// One long chain: the nested prefixes {a}, {a, b}, ..., {a, ..., h},
	// twice, so every item has its own support and every node a tail.
	var chain []byte
	for k := byte(0); k < 8; k++ {
		for i := byte(0); i < 8; i++ {
			chain = append(chain, min(i, k))
		}
	}
	f.Add(append(chain, chain...), 8, int64(1), 1, 1)
	// A transaction holding every candidate item among sparser ones.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 3, 0, 0, 0, 0, 0, 0, 1, 2, 5, 1, 1, 1, 1, 1,
		7, 6, 7, 7, 7, 7, 7, 7, 0, 1, 2, 3, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4}, 8, int64(2), 1, 1)
	f.Fuzz(func(t *testing.T, data []byte, width int, per int64, minPS, minRec int) {
		if width <= 0 || width > 8 {
			width = 2
		}
		if per <= 0 || per > 1000 {
			per = 2
		}
		if minPS <= 0 || minPS > 100 {
			minPS = 2
		}
		if minRec <= 0 || minRec > 10 {
			minRec = 1
		}
		// Each byte contributes item (b & 7) to the transaction at
		// timestamp (index/width + 1), so a transaction holds up to width
		// items.
		b := newFuzzBuilder()
		for i, by := range data {
			if i > 400 {
				break
			}
			b.add(int64(i/width+1), by&7)
		}
		db := b.build()
		if db.Len() == 0 {
			return
		}
		checkTreeRanges(t, db, Options{Per: per, MinPS: minPS, MinRec: minRec})
	})
}
