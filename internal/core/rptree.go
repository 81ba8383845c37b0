package core

import (
	"slices"

	"github.com/recurpat/rp/internal/tsdb"
)

// rpNode is a node of the RP-tree prefix tree (paper Section 4.2.1), laid
// out for slab allocation: nodes live in a nodeArena's []rpNode slice and
// are addressed by int32 index, so the slab holds no pointers. Unlike an
// FP-tree node it carries no support count; instead, the transactions
// whose candidate projection ends at a node (its tail tids) are recorded in
// the tree's tid array.
//
// The tid array is laid out depth first, so every node's subtree is one
// contiguous range tids[lo:hi], the node's own tail tids first, then its
// children's ranges in rank order. The range is exactly the ts-list that
// pushing every deeper node's list up to its parent (Lemma 3) would
// accumulate at the node, so mining reads TS^beta straight off the ranges
// and never mutates the tree. The root holds no node: its range is the
// whole tid array.
//
// A node's root path, the ranks from the root down to the node, is
// paths[pathLo:pathHi] of the tree's path slab: the leading ranks of the
// first base path that reached the node, which every path through the node
// shares. Its last rank is the node's own, its item the tree's order[rank].
//
// A tid is a transaction index (a position in db.Trans); the tree's ts map
// turns tids into timestamps, and every sorted view is a union of ranges
// (see merge.go), so a range's tids are in no particular order.
type rpNode struct {
	lo, hi         int32 // subtree range in the tree's tids
	pathLo, pathHi int32 // root path in the tree's paths
}

// nodeArena is a slab of RP-tree nodes plus slabs of their tids, rank
// paths and the interesting intervals of their ranks, and of the trees
// themselves: each tree's header, item order and per-rank table. A tree's
// nodes are appended to the node slab as the rank sweep creates them, so
// they end it; every other slab is carved at its exact size.
// Conditional trees are carved from a per-miner arena stack-wise: mark()
// before building a conditional tree, reset(mark) once its recursion
// returns, so every slab's capacity is reused across the entire mining
// run instead of being reallocated per tree.
type nodeArena struct {
	nodes  []rpNode
	tids   []int32
	paths  []int32
	ivals  []Interval
	trees  []rpTree
	orders []tsdb.ItemID
	ranks  []treeRank
}

// arenaMark is a position in each of a nodeArena's slabs.
type arenaMark struct{ nodes, tids, paths, ivals, trees, orders, ranks int }

// carve cuts n elements off the end of *slab; their contents are
// unspecified. A tree keeps the returned slice (or a pointer into it), so
// a later growth of the slab leaves its contents in place.
func carve[T any](slab *[]T, n int) []T {
	lo := len(*slab)
	*slab = slices.Grow(*slab, n)[:lo+n]
	return (*slab)[lo : lo+n : lo+n]
}

// mark returns the current slab positions for a later reset.
func (a *nodeArena) mark() arenaMark {
	return arenaMark{len(a.nodes), len(a.tids), len(a.paths), len(a.ivals), len(a.trees), len(a.orders), len(a.ranks)}
}

// reset truncates the slabs back to a mark, reclaiming every node, tid,
// path rank, interval and tree created since without freeing the slabs'
// backing arrays.
func (a *nodeArena) reset(m arenaMark) {
	a.nodes, a.tids, a.paths = a.nodes[:m.nodes], a.tids[:m.tids], a.paths[:m.paths]
	a.ivals, a.trees = a.ivals[:m.ivals], a.trees[:m.trees]
	a.orders, a.ranks = a.orders[:m.orders], a.ranks[:m.ranks]
}

// rpTree is a prefix tree plus what it knows per rank. The item order is
// support-descending within the tree's own database (the full TDB for the
// initial tree, the conditional pattern base for conditional trees). The
// nodes live in the referenced arena, grouped by rank: each rank's nodes
// are one block of the node slab, in the order the rank sweep created
// them.
type rpTree struct {
	arena *nodeArena
	tids  []int32       // every node's subtree range, see rpNode
	paths []int32       // the ranks of the base paths the tree was built from
	ts    []int64       // tid -> timestamp, shared by every tree of a mine
	order []tsdb.ItemID // tree item order, most frequent first
	ranks []treeRank    // per rank, in order's order
	nodes int           // nodes created (stats)
}

// treeRank is what a tree holds for one rank: the block of the node slab
// holding the rank's nodes, and the periodic-run fold of the tid set those
// nodes' ranges cover, the ts-list of the pattern the rank adds to the
// tree's suffix. The fold is made where that set is first gathered, by the
// RP-list scan for the initial tree and by conditionalTree's Erec check
// for a conditional one, so mining only reads it: the support, and the
// interesting intervals (paper Definition 7), whose count is the
// recurrence.
type treeRank struct {
	nodes span
	sup   int
	ipi   []Interval
}

// rankNodes returns the nodes of rank r, in creation order.
func (t *rpTree) rankNodes(r int) []rpNode {
	sp := t.ranks[r].nodes
	return t.arena.nodes[sp.lo:sp.hi]
}

// rankPath is one base path a tree is built from, with the tid bag of the
// transactions it stands for: tids src[tlo:thi] of the build's tid source.
// While the tree is built, paths[lo:hi] of its path slab receives the
// path's ranks.
type rankPath struct {
	lo, hi, tlo, thi int32
}

// span is a range lo:hi of an index list.
type span struct{ lo, hi int32 }

// rankSweep is the scratch of tree construction. A zero value is ready to
// use; conditional trees reuse one per miner.
type rankSweep struct {
	at  []int32 // per base path: the node it has reached + 1, 0 at the root
	cnt []int32 // per node: its tail tid count, then its fill cursor
}

// build makes the tree of order's items from base paths: rank r of the tree
// goes to the base paths idx[spans[r].lo:spans[r].hi], and a base path's bag
// is src[tlo:thi]. Nodes, tids and the paths' ranks are carved from a; ranks
// carries each rank's fold, and build sets its node block. A base path
// holding no rank is left out of the tree, and every base path's lo and hi
// are overwritten.
//
// The sweep walks the ranks in ascending order and moves each base path
// holding rank r from its node to that node's rank-r child, creating the
// child on first use and writing r into the path's ranks. Nodes are created
// rank by rank, so each rank's nodes are one block of the slab, and a node
// has a rank-r child exactly when its newest child lies in rank r's block.
// During the sweep a node's lo and hi hold its parent+1 and its newest
// child+1. A backward pass then sums subtree tid counts into hi, children
// before parents; a forward pass gives each node its range, after its
// parent's own tails and its elder siblings, which come in rank order; and
// a last pass copies each path's bag into its tail node's own slots.
func (b *rankSweep) build(a *nodeArena, order []tsdb.ItemID, ranks []treeRank, ts []int64, base []rankPath, idx []int32, spans []span, src []int32) *rpTree {
	for bi := range base {
		base[bi].hi = 0
	}
	for _, sp := range spans {
		for _, bi := range idx[sp.lo:sp.hi] {
			base[bi].hi++
		}
	}
	w := int32(0)
	for bi := range base {
		bp := &base[bi]
		bp.lo, bp.hi, w = w, w, w+bp.hi
	}
	t := &carve(&a.trees, 1)[0]
	*t = rpTree{arena: a, paths: carve(&a.paths, int(w)), ts: ts, order: order, ranks: ranks}

	first := int32(len(a.nodes))
	nodes := slices.Grow(a.nodes, int(w/2))
	at := growN(&b.at, len(base))
	clear(at)
	root := int32(0) // the root's newest child + 1
	for r, sp := range spans {
		block := int32(len(nodes))
		for _, bi := range idx[sp.lo:sp.hi] {
			bp, p := &base[bi], at[bi]
			c := root
			if p > 0 {
				c = nodes[p-1].hi
			}
			if c <= block {
				nodes = append(nodes, rpNode{lo: p, pathLo: bp.lo, pathHi: bp.hi + 1})
				c = int32(len(nodes))
				if p > 0 {
					nodes[p-1].hi = c
				} else {
					root = c
				}
			}
			t.paths[bp.hi] = int32(r)
			bp.hi++
			at[bi] = c
		}
		ranks[r].nodes = span{block, int32(len(nodes))}
	}
	a.nodes = nodes
	tree := nodes[first:]
	t.nodes = len(tree)

	cnt := growN(&b.cnt, len(tree))
	for i := range tree {
		tree[i].hi, cnt[i] = 0, 0
	}
	ntids := int32(0)
	for bi, c := range at {
		if c > 0 {
			k := base[bi].thi - base[bi].tlo
			cnt[c-1-first] += k
			ntids += k
		}
	}
	for i := len(tree) - 1; i >= 0; i-- {
		nd := &tree[i]
		nd.hi += cnt[i]
		if nd.lo > 0 {
			nodes[nd.lo-1].hi += nd.hi
		}
	}
	root = 0 // now the root's fill cursor
	for i := range tree {
		nd := &tree[i]
		cur := &root
		if nd.lo > 0 {
			cur = &cnt[nd.lo-1-first]
		}
		nd.lo, nd.hi = *cur, *cur+nd.hi
		*cur = nd.hi
		cnt[i] += nd.lo
	}
	for i := range tree {
		cnt[i] = tree[i].lo
	}
	t.tids = carve(&a.tids, int(ntids))
	for bi, c := range at {
		if c > 0 {
			bp, cur := base[bi], &cnt[c-1-first]
			*cur += int32(copy(t.tids[*cur:], src[bp.tlo:bp.thi]))
		}
	}
	return t
}

// buildRPTree performs the second database scan of RP-growth (Algorithm 2):
// every transaction's candidate item projection becomes one base path, and
// the rank sweep builds the prefix tree of those paths, each transaction's
// index landing at its projection's tail node. The tree owns a fresh arena
// and the tid map every tree of the mine shares; its ranks take their folds
// from the RP-list.
//
// The scan files each transaction under the ranks it holds, one list per
// rank sized by the item's support; those lists are the sweep's per-rank
// paths, so no projection is ever sorted.
//
// For a shard, each projection is cut after the highest rank spec owns, and
// a transaction holding no owned rank is left out. That is exact for every
// owned rank: each transaction through a node of owned rank r keeps its
// path at least down to r, so the node keeps its root path and its range's
// tid set, which is all that mining the rank reads. A rank the shard does
// not own may lose nodes and tids, so its fold no longer describes them;
// nothing reads it, since the shard mines only its owned ranks.
func buildRPTree(db *tsdb.DB, list *RPList, spec ShardSpec) *rpTree {
	order := make([]tsdb.ItemID, len(list.Candidates))
	ranks := make([]treeRank, len(list.Candidates))
	spans := make([]span, len(list.Candidates)) // rank r's list: cols[lo:hi]
	total := int32(0)
	for r, e := range list.Candidates {
		order[r] = e.Item
		ranks[r] = treeRank{sup: e.Support, ipi: list.ipi[r]}
		spans[r] = span{total, total}
		total += int32(e.Support)
	}
	owned := make([]int, len(list.Rank)) // per item: its rank if spec owns it, else -1
	for it, r := range list.Rank {
		owned[it] = -1
		if r >= 0 && spec.Owns(r) {
			owned[it] = r
		}
	}
	ts := make([]int64, len(db.Trans))
	tids := make([]int32, len(db.Trans)) // the bags: tid i is tids[i:i+1]
	base := make([]rankPath, len(db.Trans))
	cols := make([]int32, total)
	for i, tr := range db.Trans {
		ts[i], tids[i] = tr.TS, int32(i)
		base[i] = rankPath{tlo: int32(i), thi: int32(i) + 1}
		// The projection keeps the ranks up to last, the transaction's
		// highest owned rank; a single shard owns every rank.
		last := len(list.Candidates)
		if spec.Count > 1 {
			last = -1
			for _, it := range tr.Items {
				last = max(last, owned[it])
			}
		}
		for _, it := range tr.Items {
			if r := list.Rank[it]; r >= 0 && r <= last {
				cols[spans[r].hi] = int32(i)
				spans[r].hi++
			}
		}
	}
	var b rankSweep
	return b.build(&nodeArena{}, order, ranks, ts, base, cols, spans, tids)
}

// condKeep is one prefix item surviving the conditional Erec check, with its
// conditional support, the base paths holding it as a span of pathIdx, and
// its interesting intervals as a span of the destination arena's ivals.
type condKeep struct {
	item  tsdb.ItemID
	sup   int
	paths span
	ipi   span
}

// growN resizes *s to n elements (growing the backing as needed, contents
// unspecified) and returns the resized slice.
func growN[T any](s *[]T, n int) []T {
	v := slices.Grow((*s)[:0], n)[:n]
	*s = v
	return v
}

// conditionalTree builds the conditional RP-tree for the item at rank r
// (Algorithm 4 line 4): the prefix paths of the item's nodes, restricted to
// items whose conditional Erec passes the candidate check (computed by one
// fused scan of the per-item tid union, which stands in for the "temporary
// array" of Section 4.2.3), re-sorted by conditional support. nil is
// returned when no item survives. Every item the check drops is counted in
// ms.pruned; an item whose conditional support alone bounds its Erec below
// MinRec is dropped before its union is built.
//
// The scan that decides a kept item also folds its recurrence: the union is
// exactly the tid set the item's rank in the new tree covers, so the rank
// stores its support and interesting intervals, and mining never gathers
// that set again.
//
// The new tree, its header, order, rank table, tids, paths and intervals
// included, is carved from dst (the caller's arena), so t is never
// mutated — the workers of a parallel run all read the shared initial
// tree concurrently while building their own conditional trees.
func (t *rpTree) conditionalTree(dst *nodeArena, ms *mergeScratch, o Options, r int) *rpTree {
	// First pass: one base path per node carrying rank r — its candidate
	// ancestors, the node's root path less its last rank, and its tids, the
	// node's subtree range. Both are ranges of t's own slabs, so the pass
	// copies nothing.
	base := ms.base[:0]
	for _, n := range t.rankNodes(r) {
		if n.pathHi-n.pathLo > 1 {
			base = append(base, rankPath{lo: n.pathLo, hi: n.pathHi - 1, tlo: n.lo, thi: n.hi})
		}
	}
	ms.base = base
	if len(base) == 0 {
		return nil
	}

	// CSR index over the base: for each prefix rank pr < r, the conditional
	// support (total timestamps) and which base paths contain pr. Rank
	// indexing keeps the pass deterministic with no map in the hot path.
	sup := growN(&ms.sup, r)
	cur := growN(&ms.cur, r+1)
	clear(sup)
	clear(cur)
	for _, bp := range base {
		for _, pr := range t.paths[bp.lo:bp.hi] {
			cur[pr+1]++
			sup[pr] += int(bp.thi - bp.tlo)
		}
	}
	for pr := 0; pr < r; pr++ {
		cur[pr+1] += cur[pr]
	}
	pathIdx := growN(&ms.pathIdx, cur[r])
	for bi, bp := range base {
		for _, pr := range t.paths[bp.lo:bp.hi] {
			pathIdx[cur[pr]] = int32(bi)
			cur[pr]++
		}
	}
	// After the fill, cur[pr] is the end offset of rank pr's path list and
	// cur[pr-1] its start.

	// Keep items whose conditional Erec passes the candidate check
	// (Properties 1-2 make this safe), order them by conditional support.
	keep := ms.keep[:0]
	start := 0
	for pr := 0; pr < r; pr++ {
		lo, hi := start, cur[pr]
		start = hi
		if lo == hi {
			continue
		}
		if o.erecBound(sup[pr]) < o.MinRec {
			ms.pruned++
			continue
		}
		at := len(dst.ivals)
		erec := ms.fold(t, base, pathIdx[lo:hi], o, &dst.ivals)
		if o.DisableErecPruning || erec >= o.MinRec {
			keep = append(keep, condKeep{item: t.order[pr], sup: sup[pr], paths: span{int32(lo), int32(hi)}, ipi: span{int32(at), int32(len(dst.ivals))}})
		} else {
			dst.ivals = dst.ivals[:at]
			ms.pruned++
		}
	}
	ms.keep = keep
	if len(keep) == 0 {
		return nil
	}
	slices.SortFunc(keep, func(x, y condKeep) int {
		if o.ItemOrder == SupportDescending && x.sup != y.sup {
			return y.sup - x.sup
		}
		if x.item != y.item {
			if x.item < y.item {
				return -1
			}
			return 1
		}
		return 0
	})
	order := carve(&dst.orders, len(keep))
	ranks := carve(&dst.ranks, len(keep))
	spans := growN(&ms.spans, len(keep))
	for i, k := range keep {
		order[i], spans[i] = k.item, k.paths
		ranks[i] = treeRank{sup: k.sup, ipi: dst.ivals[k.ipi.lo:k.ipi.hi:k.ipi.hi]}
	}

	// Second pass: the rank sweep over the CSR index re-ranks the base
	// paths' kept ancestors into the new tree; their bags stay ranges of
	// t's tids.
	return ms.sweep.build(dst, order, ranks, t.ts, base, pathIdx, spans, t.tids)
}
