package core

import (
	"reflect"
	"slices"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

// collectTS is TS^beta for the item at rank r as the sequential miner reads
// it: the union of the rank's node lists, through the tid -> timestamp map.
func (t *rpTree) collectTS(ms *mergeScratch, r int, dst []int64) []int64 {
	t.stage(ms, r, false)
	return ms.merge(t.ts, dst)
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
	var ms mergeScratch
	// Six candidate items -> six header chains.
	if len(tree.headers) != 6 {
		t.Fatalf("headers = %d, want 6", len(tree.headers))
	}
	// Every transaction's full candidate projection timestamps must be
	// recoverable: collecting each item's subtree ts covers exactly the
	// transactions containing that item.
	for rank, item := range tree.order {
		tree.stage(&ms, rank, true)
		ts := ms.merge(tree.ts, nil)
		want := db.TSList([]tsdb.ItemID{item})
		if !reflect.DeepEqual(ts, want) {
			t.Errorf("item %s subtree ts = %v, want %v", db.Dict.Name(item), ts, want)
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
	got := 0
	for c := tree.arena.nodes[tree.root].firstChild; c != nilNode; c = tree.arena.nodes[c].nextSibling {
		got++
	}
	if got != len(roots) {
		t.Errorf("root children = %d, want %d", got, len(roots))
	}
	// The dense root index must agree with the sibling list.
	for rk, ci := range tree.rootByRank {
		if ci == nilNode {
			continue
		}
		if tree.arena.nodes[ci].rank != int32(rk) || tree.arena.nodes[ci].parent != tree.root {
			t.Errorf("rootByRank[%d] inconsistent", rk)
		}
	}
}

func TestRPTreeNoSupportCountsOnlyTailTS(t *testing.T) {
	// Paper Section 4.2.1: only tail nodes carry ts-lists. Gather the tids
	// across the tree: every transaction (each has a candidate item here)
	// must be recorded exactly once, and map to its own timestamp.
	db, _, tree := buildPaperTree(t)
	var tids []int32
	for i := range tree.arena.nodes {
		tids = append(tids, tree.arena.nodes[i].tids...)
	}
	slices.Sort(tids)
	if len(tids) != db.Len() {
		t.Fatalf("tree holds %d tids, want %d (one per transaction)", len(tids), db.Len())
	}
	for i, tid := range tids {
		if tid != int32(i) {
			t.Fatalf("sorted tids[%d] = %d: a transaction is missing or recorded twice", i, tid)
		}
		if tree.ts[tid] != db.Trans[i].TS {
			t.Fatalf("tid %d maps to ts %d, want %d", tid, tree.ts[tid], db.Trans[i].TS)
		}
	}
}

func TestCollectTSMatchesScan(t *testing.T) {
	db, _, tree := buildPaperTree(t)
	var ms mergeScratch
	// Before any push-up, the bottom item's collectTS must equal its scan
	// ts-list (all its nodes are tail nodes).
	bottomRank := len(tree.order) - 1
	bottom := tree.order[bottomRank]
	got := tree.collectTS(&ms, bottomRank, nil)
	want := db.TSList([]tsdb.ItemID{bottom})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("collectTS(%s) = %v, want %v", db.Dict.Name(bottom), got, want)
	}
}

func TestPushUpPreservesParentTS(t *testing.T) {
	// Lemma 3: pushing the bottom item's ts-lists up lets the next item's
	// collectTS still see every transaction containing it.
	db, _, tree := buildPaperTree(t)
	var ms mergeScratch
	for r := len(tree.order) - 1; r > 0; r-- {
		tree.pushUp(r)
		got := tree.collectTS(&ms, r-1, nil)
		want := db.TSList([]tsdb.ItemID{tree.order[r-1]})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after pushUp(%d): collectTS(%s) = %v, want %v",
				r, db.Dict.Name(tree.order[r-1]), got, want)
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
	cond := tree.conditionalTree(&arena, &ms, paperOptions(), fRank, false)
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

func TestConditionalTreeSubtreeModeEquivalent(t *testing.T) {
	// The parallel miner's subtree-merging conditional construction must
	// produce the same conditional tree contents as the sequential
	// push-up-based one, for the bottom item (where both apply unmodified).
	_, _, tree1 := buildPaperTree(t)
	_, _, tree2 := buildPaperTree(t)
	var a1, a2 nodeArena
	var ms mergeScratch
	r := len(tree1.order) - 1
	seqCT := tree1.conditionalTree(&a1, &ms, paperOptions(), r, false)
	parCT := tree2.conditionalTree(&a2, &ms, paperOptions(), r, true)
	if (seqCT == nil) != (parCT == nil) {
		t.Fatalf("one mode produced nil: %v vs %v", seqCT, parCT)
	}
	if seqCT == nil {
		return
	}
	if !reflect.DeepEqual(seqCT.order, parCT.order) {
		t.Fatalf("orders differ: %v vs %v", seqCT.order, parCT.order)
	}
	for rank := range seqCT.order {
		a := seqCT.collectTS(&ms, rank, nil)
		b := parCT.collectTS(&ms, rank, nil)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("rank %d ts differ: %v vs %v", rank, a, b)
		}
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
