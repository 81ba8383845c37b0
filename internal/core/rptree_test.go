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

// collectTS is TS^beta for the item at rank r: the union of the subtree
// ranges of the rank's nodes, through the tid -> timestamp map, sorted.
func (t *rpTree) collectTS(r int) []int64 {
	var ts []int64
	for _, nd := range t.rankNodes(r) {
		for _, tid := range t.tids[nd.lo:nd.hi] {
			ts = append(ts, t.ts[tid])
		}
	}
	slices.Sort(ts)
	return ts
}

// nodeIdx is the block of the arena's node slab holding the tree's nodes,
// rank by rank.
func (t *rpTree) nodeIdx() (lo, hi int32) {
	if len(t.ranks) == 0 {
		return 0, 0
	}
	return t.ranks[0].nodes.lo, t.ranks[len(t.ranks)-1].nodes.hi
}

// rootPath is node n's root path read from the tree's path slab: the
// ranks from the root down to n.
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
	lo, hi := t.nodeIdx()
	for c := lo; c < hi; c++ {
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
	tree := buildRPTree(db, list, ShardSpec{Count: 1})
	return db, list, tree
}

func TestRPTreeStructurePaperExample(t *testing.T) {
	db, list, tree := buildPaperTree(t)
	// Six candidate items -> six ranks, whose node blocks tile the slab.
	if len(tree.ranks) != 6 {
		t.Fatalf("ranks = %d, want 6", len(tree.ranks))
	}
	at := int32(0)
	for rank, rk := range tree.ranks {
		if rk.nodes.lo != at || rk.nodes.hi <= rk.nodes.lo {
			t.Fatalf("rank %d nodes [%d, %d), want a non-empty block from %d", rank, rk.nodes.lo, rk.nodes.hi, at)
		}
		at = rk.nodes.hi
	}
	if int(at) != len(tree.arena.nodes) {
		t.Fatalf("rank blocks end at %d, the slab holds %d nodes", at, len(tree.arena.nodes))
	}
	// Every transaction's full candidate projection timestamps must be
	// recoverable: the ranges of each item's nodes cover exactly the
	// transactions containing that item.
	for rank, item := range tree.order {
		ts := tree.collectTS(rank)
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
	var kids [][2]int32
	for n := range int32(len(tree.arena.nodes)) {
		if len(tree.rootPath(n)) == 1 {
			item := tree.order[tree.rank(n)]
			if got[item] {
				t.Errorf("root has two children for item %s", db.Dict.Name(item))
			}
			got[item] = true
			kids = append(kids, [2]int32{tree.arena.nodes[n].lo, tree.arena.nodes[n].hi})
		}
	}
	if !reflect.DeepEqual(got, roots) {
		t.Errorf("root children = %v, want %v", got, roots)
	}
	// The root holds no node: its range is implicitly every tid, which its
	// children's ranges tile, every transaction here having a candidate.
	slices.SortFunc(kids, func(x, y [2]int32) int { return int(x[0] - y[0]) })
	end := int32(0)
	for _, k := range kids {
		if k[0] != end {
			t.Fatalf("root children's ranges %v do not tile the tids", kids)
		}
		end = k[1]
	}
	if int(end) != len(tree.tids) {
		t.Errorf("root children's ranges end at %d, want %d", end, len(tree.tids))
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
	// Every item's collectTS, read from its nodes' ranges, equals its
	// scan ts-list: the ranges hold what push-ups would gather.
	for r, item := range tree.order {
		got := tree.collectTS(r)
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
	ts := cond.collectTS(0)
	want := []int64{3, 5, 6, 10, 11, 12}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("TS^ef = %v, want %v", ts, want)
	}
	// The check that kept e folded TS^ef's runs as Table 2 lists them.
	if rk := cond.ranks[0]; rk.sup != 6 || !slices.Equal(rk.ipi, []Interval{{3, 6, 3}, {10, 12, 3}}) {
		t.Errorf("CT_f rank e holds sup %d, intervals %v; want 6, [{3 6 3} {10 12 3}]", rk.sup, rk.ipi)
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
	tree := buildRPTree(db, list, ShardSpec{Count: 1})
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
	// The slab holds exactly the created nodes; the root is implicit.
	if len(tree.arena.nodes) != tree.nodes {
		t.Errorf("slab has %d entries, want %d nodes", len(tree.arena.nodes), tree.nodes)
	}
}

// checkRanges verifies the subtree-range layout of tree, whose database is
// the transactions members of db: every member whose projection onto the
// tree's items is non-empty sits in tree.tids exactly once; every node's
// range holds exactly the members whose projection passes through the node
// (brute force); a node's children's ranges are disjoint and nested in its
// range, after the node's own tail tids; every node's root path, read from
// the path slab, is distinct and is the projection prefix of each member in
// its range; and the nodes are laid out by rank: each rank's nodes are one
// block of the slab, the blocks in rank order, a block holds only nodes of
// its rank, each root path once, and their ranges together hold exactly
// the members carrying the rank's item.
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
	first, end := tree.nodeIdx()
	if int(end-first) != tree.nodes || int(end) != len(nodes) {
		t.Fatalf("the tree's nodes are slab block [%d, %d) of %d, want %d nodes ending the slab", first, end, len(nodes), tree.nodes)
	}
	at := first
	for r, rk := range tree.ranks {
		if rk.nodes.lo != at {
			t.Fatalf("rank %d's block starts at %d, want %d", r, rk.nodes.lo, at)
		}
		at = rk.nodes.hi
		var got, want []int32
		for i, nd := range tree.rankNodes(r) {
			n := rk.nodes.lo + int32(i)
			if int(tree.rank(n)) != r {
				t.Fatalf("node %d in rank %d's block has rank %d", n, r, tree.rank(n))
			}
			got = append(got, tree.tids[nd.lo:nd.hi]...)
		}
		for tid, p := range proj {
			if slices.Contains(p, tree.order[r]) {
				want = append(want, tid)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("rank %d's ranges hold %v, want the members carrying its item, %v", r, got, want)
		}
	}
	paths := map[string]int32{}
	for n := first; n < end; n++ {
		nd := nodes[n]
		if nd.lo < 0 || nd.lo > nd.hi || int(nd.hi) > len(tree.tids) {
			t.Fatalf("node %d range [%d, %d) outside tids[0:%d]", n, nd.lo, nd.hi, len(tree.tids))
		}
		if nd.lo == nd.hi {
			t.Fatalf("node %d has an empty range", n)
		}
		ranks := tree.rootPath(n)
		if len(ranks) == 0 {
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
		for c := first; c < end; c++ {
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
		tree := buildRPTree(db, list, ShardSpec{Count: 1})
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

// checkRankStats checks that every rank of tree, whose patterns extend
// suffix, stores the fold of its pattern's ts-list: the support, and the
// recurrence and interesting intervals Recurrence computes from
// db.TSList(suffix + item), and that the list passed the Erec candidate
// check the rank was kept by. It recurses, depth first, into the
// conditional tree a mine builds for every rank, and returns how many
// trees it checked.
func checkRankStats(t *testing.T, db *tsdb.DB, o Options, tree *rpTree, suffix []tsdb.ItemID, a *nodeArena, ms *mergeScratch) int {
	t.Helper()
	checked := 1
	for r := len(tree.order) - 1; r >= 0; r-- {
		beta := append(slices.Clone(suffix), tree.order[r])
		items := slices.Clone(beta)
		slices.Sort(items)
		ts := db.TSList(items)
		rk := tree.ranks[r]
		rec, ipi := Recurrence(ts, o.Per, o.MinPS)
		if rk.sup != len(ts) || len(rk.ipi) != rec || !slices.Equal(rk.ipi, ipi) {
			t.Fatalf("%+v: pattern %v stores sup %d, intervals %v; its ts-list %v has sup %d, rec %d, intervals %v",
				o, beta, rk.sup, rk.ipi, ts, len(ts), rec, ipi)
		}
		if erec := Erec(ts, o.Per, o.MinPS); o.erecBound(len(ts)) < o.MinRec || !o.DisableErecPruning && erec < o.MinRec {
			t.Fatalf("%+v: pattern %v is a rank, but its Erec %d (support %d) fails the candidate check", o, beta, erec, len(ts))
		}
		mark := a.mark()
		if ct := tree.conditionalTree(a, ms, o, r); ct != nil {
			checked += checkRankStats(t, db, o, ct, beta, a, ms)
		}
		ms.pruned = 0
		a.reset(mark)
	}
	return checked
}

// TestRankStatsMatchTSList checks the folds mining reads instead of
// gathering ts-lists: for the initial tree and every conditional tree a
// mine builds, under both item orders and with Erec pruning on and off.
func TestRankStatsMatchTSList(t *testing.T) {
	check := func(db *tsdb.DB, o Options) int {
		checked := 0
		for _, order := range []ItemOrder{SupportDescending, Lexicographic} {
			for _, off := range []bool{false, true} {
				o.ItemOrder, o.DisableErecPruning = order, off
				list := BuildRPList(db, o)
				if len(list.Candidates) == 0 {
					continue
				}
				var a nodeArena
				var ms mergeScratch
				checked += checkRankStats(t, db, o, buildRPTree(db, list, ShardSpec{Count: 1}), nil, &a, &ms)
				if len(a.ivals) != 0 {
					t.Fatalf("%+v: %d intervals left in the arena after the walk", o, len(a.ivals))
				}
			}
		}
		return checked
	}
	if n := check(paperDB(t), paperOptions()); n < 8 {
		t.Fatalf("paper example: only %d trees checked", n)
	}
	rng := rand.New(rand.NewPCG(23, 5))
	trees := 0
	for trial := 0; trial < 25; trial++ {
		db := randomDB(rng, 3+rng.IntN(6), 20+rng.IntN(60), 0.2+0.4*rng.Float64())
		o := Options{Per: 1 + rng.Int64N(4), MinPS: 1 + rng.IntN(3), MinRec: 1 + rng.IntN(3)}
		trees += check(db, o)
	}
	if trees < 400 {
		t.Fatalf("only %d trees checked; the random DBs are too sparse", trees)
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
