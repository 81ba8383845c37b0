package core

import (
	"slices"

	"github.com/recurpat/rp/internal/tsdb"
)

// nilNode is the null value of a node index: the slab equivalent of a nil
// pointer for parent, child, sibling and header links.
const nilNode int32 = -1

// rpNode is a node of the RP-tree prefix tree (paper Section 4.2.1), laid
// out for slab allocation: nodes live in a nodeArena's []rpNode slice and
// reference each other by int32 index, and the children of a node form a
// first-child/next-sibling list sorted by tree rank. Unlike an FP-tree node
// it carries no support count; instead, tail nodes (the last node of each
// inserted candidate projection) carry the ts-list of the transactions that
// end there. During bottom-up mining, ts-lists are pushed up to parents
// (Lemma 3), so interior nodes accumulate timestamps too.
//
// A node's ts-list is a concatenation of sorted runs: boundaries of all runs
// but the implicit last one are recorded in runs, and appendRun starts a new
// run only when an append actually breaks the sorted order. Tail appends
// during the database scan arrive in timestamp order, so initial trees hold
// a single run per tail node; push-ups and conditional-tree inserts add runs
// that collectTS later k-way merges instead of re-sorting.
type rpNode struct {
	item        tsdb.ItemID
	rank        int32 // position of item in the owning tree's order
	parent      int32
	firstChild  int32
	nextSibling int32
	link        int32   // next node carrying the same item (header chain)
	ts          []int64 // concatenated sorted runs of timestamps
	runs        []int32 // end offsets of all runs except the last
}

// appendRun appends one sorted run to the node's ts-list, recording a run
// boundary only when the append breaks the existing sorted order (ascending
// appends coalesce into the current run).
func (n *rpNode) appendRun(vals []int64) {
	if len(vals) == 0 {
		return
	}
	if len(n.ts) > 0 && vals[0] < n.ts[len(n.ts)-1] {
		n.runs = append(n.runs, int32(len(n.ts)))
	}
	n.ts = append(n.ts, vals...)
}

// appendRunList appends every run of a run-tracked ts-list.
func (n *rpNode) appendRunList(ts []int64, runs []int32) {
	prev := int32(0)
	for _, end := range runs {
		n.appendRun(ts[prev:end])
		prev = end
	}
	n.appendRun(ts[prev:])
}

// nodeArena is a slab of RP-tree nodes. Conditional trees are carved from a
// per-miner arena stack-wise: mark() before building a conditional tree,
// reset(mark) once its recursion returns, so the slab's capacity is reused
// across the entire mining run instead of being reallocated per tree.
type nodeArena struct {
	nodes []rpNode
}

// newNode appends a fresh node and returns its index. Growing the slab may
// move it, so callers must not hold *rpNode pointers across newNode calls.
//
// When the slab re-expands over a region truncated by reset, the slot's old
// ts/runs capacity is salvaged (truncated, not dropped): conditional trees
// are rebuilt in the same slab region over and over during mining, and
// reusing the per-slot list storage removes almost all of their append
// allocations. A ts backing belongs to exactly one slot at a time and every
// insert copies timestamp values, so a salvaged buffer can never alias a
// live list.
func (a *nodeArena) newNode(item tsdb.ItemID, rank, parent int32) int32 {
	idx := len(a.nodes)
	if idx < cap(a.nodes) {
		a.nodes = a.nodes[:idx+1]
		n := &a.nodes[idx]
		n.item, n.rank, n.parent = item, rank, parent
		n.firstChild, n.nextSibling, n.link = nilNode, nilNode, nilNode
		n.ts, n.runs = n.ts[:0], n.runs[:0]
		return int32(idx)
	}
	a.nodes = append(a.nodes, rpNode{
		item:        item,
		rank:        rank,
		parent:      parent,
		firstChild:  nilNode,
		nextSibling: nilNode,
		link:        nilNode,
	})
	return int32(idx)
}

// node returns the node at index i. The pointer is invalidated by newNode.
func (a *nodeArena) node(i int32) *rpNode { return &a.nodes[i] }

// mark returns the current slab position for a later reset.
func (a *nodeArena) mark() int { return len(a.nodes) }

// reset truncates the slab back to a mark, reclaiming every node created
// since without freeing the slab's backing array.
func (a *nodeArena) reset(mark int) { a.nodes = a.nodes[:mark] }

// rpTree is a prefix tree plus the per-item header chains. The item order is
// support-descending within the tree's own database (the full TDB for the
// initial tree, the conditional pattern base for conditional trees). All
// nodes, including the root, live in the referenced arena.
type rpTree struct {
	arena      *rpArena
	root       int32
	order      []tsdb.ItemID // tree item order, most frequent first
	headers    []int32       // first node per rank, nilNode when empty
	rootByRank []int32       // root's child per rank (O(1) insert lookup)
	nodes      int           // nodes created (stats)
}

// rpArena aliases nodeArena so rpTree reads naturally; kept distinct from
// the merge scratch, which is per-miner, not per-tree.
type rpArena = nodeArena

// newRPTree prepares an empty tree over the given item order, carving its
// root from a.
func newRPTree(a *nodeArena, order []tsdb.ItemID) *rpTree {
	t := &rpTree{
		arena:      a,
		order:      order,
		headers:    make([]int32, len(order)),
		rootByRank: make([]int32, len(order)),
	}
	for i := range t.headers {
		t.headers[i] = nilNode
		t.rootByRank[i] = nilNode
	}
	t.root = a.newNode(0, -1, nilNode)
	return t
}

// insertRanks adds one candidate projection, given as its strictly
// increasing sequence of tree ranks, recording the run-tracked ts-list
// (ts, runs) at the tail node (Algorithm 3, insert_tree). Timestamp values
// are copied, never aliased.
func (t *rpTree) insertRanks(ranks []int32, ts []int64, runs []int32) {
	a := t.arena
	cur := t.root
	for _, rk := range ranks {
		child := nilNode
		if cur == t.root {
			child = t.rootByRank[rk]
		} else {
			for c := a.nodes[cur].firstChild; c != nilNode; c = a.nodes[c].nextSibling {
				if a.nodes[c].rank == rk {
					child = c
					break
				}
				if a.nodes[c].rank > rk {
					break
				}
			}
		}
		if child == nilNode {
			child = a.newNode(t.order[rk], rk, cur)
			t.linkChild(cur, child, rk)
			a.nodes[child].link = t.headers[rk]
			t.headers[rk] = child
			t.nodes++
		}
		cur = child
	}
	if cur != t.root {
		a.nodes[cur].appendRunList(ts, runs)
	}
}

// linkChild splices child into parent's rank-sorted sibling list and, for
// root children, the dense rootByRank index.
func (t *rpTree) linkChild(parent, child int32, rk int32) {
	a := t.arena
	if parent == t.root {
		t.rootByRank[rk] = child
	}
	prev := nilNode
	c := a.nodes[parent].firstChild
	for c != nilNode && a.nodes[c].rank < rk {
		prev = c
		c = a.nodes[c].nextSibling
	}
	a.nodes[child].nextSibling = c
	if prev == nilNode {
		a.nodes[parent].firstChild = child
	} else {
		a.nodes[prev].nextSibling = child
	}
}

// buildRPTree performs the second database scan of RP-growth (Algorithm 2):
// every transaction's candidate item projection is inserted into the prefix
// tree with the transaction's timestamp recorded at the tail node. The tree
// owns a fresh arena; transactions arrive in timestamp order, so every tail
// node's ts-list is a single sorted run.
func buildRPTree(db *tsdb.DB, list *RPList) *rpTree {
	order := make([]tsdb.ItemID, len(list.Candidates))
	for i, e := range list.Candidates {
		order[i] = e.Item
	}
	t := newRPTree(&nodeArena{}, order)
	var ranks []int32
	var tsOne [1]int64
	for _, tr := range db.Trans {
		ranks = ranks[:0]
		for _, it := range tr.Items {
			if r := list.Rank[it]; r >= 0 {
				ranks = append(ranks, int32(r))
			}
		}
		if len(ranks) == 0 {
			continue
		}
		slices.Sort(ranks)
		tsOne[0] = tr.TS
		t.insertRanks(ranks, tsOne[:], nil)
	}
	return t
}

// collectTS merges the ts-lists of every node carrying the item at rank r
// into a sorted timestamp list appended to dst. During sequential mining
// this is TS^beta for the suffix pattern being processed, because deeper
// items have already pushed their ts-lists up (Lemma 3).
func (t *rpTree) collectTS(ms *mergeScratch, r int, dst []int64) []int64 {
	a := t.arena
	runs := ms.runs[:0]
	for n := t.headers[r]; n != nilNode; n = a.nodes[n].link {
		runs = appendRunViews(runs, a.nodes[n].ts, a.nodes[n].runs)
	}
	ms.runs = runs
	return ms.merge(dst)
}

// collectSubtreeTS merges the ts-lists of the node at index n and all its
// descendants into a sorted list appended to dst. Used by the parallel
// miner, which reads a shared immutable tree and so cannot rely on push-ups
// having happened. Sibling links make the walk deterministic.
func (t *rpTree) collectSubtreeTS(ms *mergeScratch, n int32, dst []int64) []int64 {
	ms.runs = t.appendSubtreeRuns(ms.runs[:0], n)
	return ms.merge(dst)
}

// appendSubtreeRuns gathers the run views of n's subtree in first-child/
// next-sibling order.
func (t *rpTree) appendSubtreeRuns(dst []run, n int32) []run {
	a := t.arena
	dst = appendRunViews(dst, a.nodes[n].ts, a.nodes[n].runs)
	for c := a.nodes[n].firstChild; c != nilNode; c = a.nodes[c].nextSibling {
		dst = t.appendSubtreeRuns(dst, c)
	}
	return dst
}

// pushUp implements Lemma 3 and line 9 of Algorithm 4: every node carrying
// the item at rank r hands its ts-list runs to its parent. Timestamps pushed
// to the root (projections that contained only this item) are discarded; the
// transactions they identify contain no other candidate item. The nodes stay
// linked in the slab — bottom-up mining never revisits rank r, and only the
// parallel miner walks child links, on a tree that is never pushed up.
func (t *rpTree) pushUp(r int) {
	a := t.arena
	for ni := t.headers[r]; ni != nilNode; {
		n := &a.nodes[ni]
		ni = n.link
		if n.parent != t.root {
			a.nodes[n.parent].appendRunList(n.ts, n.runs)
		}
		n.ts, n.runs = n.ts[:0], n.runs[:0] // keep capacity for slot salvage
	}
	t.headers[r] = nilNode
}

// basePath is one prefix path of the suffix item, restricted to candidate
// ancestors: the tree ranks of the ancestors (root-most first, ascending,
// stored as [rankLo:rankHi) of the scratch's shared rankBuf backing) and the
// path's run-tracked timestamp list.
type basePath struct {
	rankLo, rankHi int32
	ts             []int64
	runs           []int32
}

// condKeep is one prefix item surviving the conditional Erec check, with its
// conditional support and its rank in the enclosing tree.
type condKeep struct {
	item  tsdb.ItemID
	sup   int
	trank int32
}

// growN resizes *s to n elements (growing the backing as needed, contents
// unspecified) and returns the resized slice.
func growN[T any](s *[]T, n int) []T {
	v := slices.Grow((*s)[:0], n)[:n]
	*s = v
	return v
}

// releaseBase returns subtree-mode collect buffers to the free list; the
// sequential miner's base paths alias tree node lists and are left alone.
func (ms *mergeScratch) releaseBase(subtree bool) {
	if !subtree {
		return
	}
	for i := range ms.base {
		ms.putBuf(ms.base[i].ts)
	}
}

// conditionalTree builds the conditional RP-tree for the item at rank r
// (Algorithm 4 line 4): the prefix paths of the item's nodes, restricted to
// items whose conditional Erec passes the candidate check (computed from
// the per-item merged ts-lists — the "temporary array" of Section 4.2.3),
// re-sorted by conditional support. nil is returned when no item survives.
// Every item the check drops is counted in ms.pruned.
//
// The new tree is carved from dst (the caller's arena), so the shared
// initial tree is never mutated — the parallel miner's workers all read t
// concurrently while building their own conditional trees.
//
// subtree selects how a node's timestamp list is read: the sequential miner
// reads the node's runs directly (push-ups have accumulated descendant
// timestamps), while the parallel miner merges each node's subtree.
func (t *rpTree) conditionalTree(dst *nodeArena, ms *mergeScratch, o Options, r int, subtree bool) *rpTree {
	a := t.arena

	// First pass: one base path per node carrying rank r — its candidate
	// ancestors (tree ranks, root-most first, in the shared rankBuf
	// backing) and its ts-list. All of it lives in pooled per-miner
	// scratch; the only allocations left in this function are the pieces
	// the returned tree retains.
	base, rankBuf := ms.base[:0], ms.rankBuf[:0]
	for ni := t.headers[r]; ni != nilNode; ni = a.nodes[ni].link {
		n := a.nodes[ni]
		ts, runs := n.ts, n.runs
		if subtree {
			ts = t.collectSubtreeTS(ms, ni, ms.getBuf())
			runs = nil
		}
		if len(ts) == 0 || n.parent == t.root {
			if subtree {
				ms.putBuf(ts)
			}
			continue
		}
		lo := int32(len(rankBuf))
		for p := n.parent; p != t.root; p = a.nodes[p].parent {
			rankBuf = append(rankBuf, a.nodes[p].rank)
		}
		slices.Reverse(rankBuf[lo:]) // root-most first
		base = append(base, basePath{rankLo: lo, rankHi: int32(len(rankBuf)), ts: ts, runs: runs})
	}
	ms.base, ms.rankBuf = base, rankBuf
	if len(base) == 0 {
		ms.releaseBase(subtree)
		return nil
	}

	// CSR index over the base: for each prefix rank pr < r, the conditional
	// support (total timestamps) and which base paths contain pr. Rank
	// indexing keeps the pass deterministic with no map in the hot path.
	sup := growN(&ms.sup, r)
	cur := growN(&ms.cur, r+1)
	clear(sup)
	clear(cur)
	for bi := range base {
		bp := &base[bi]
		for _, pr := range rankBuf[bp.rankLo:bp.rankHi] {
			cur[pr+1]++
			sup[pr] += len(bp.ts)
		}
	}
	for pr := 0; pr < r; pr++ {
		cur[pr+1] += cur[pr]
	}
	pathIdx := growN(&ms.pathIdx, len(rankBuf))
	for bi := range base {
		bp := &base[bi]
		for _, pr := range rankBuf[bp.rankLo:bp.rankHi] {
			pathIdx[cur[pr]] = int32(bi)
			cur[pr]++
		}
	}
	// After the fill, cur[pr] is the end offset of rank pr's path list and
	// cur[pr-1] its start.

	// Keep items whose conditional Erec passes the candidate check
	// (Properties 1-2 make this safe), order them by conditional support.
	keep := ms.keep[:0]
	merged := ms.getBuf()
	start := 0
	for pr := 0; pr < r; pr++ {
		lo, hi := start, cur[pr]
		start = hi
		if lo == hi {
			continue
		}
		runs := ms.runs[:0]
		for _, bi := range pathIdx[lo:hi] {
			bp := &base[bi]
			runs = appendRunViews(runs, bp.ts, bp.runs)
		}
		ms.runs = runs
		merged = ms.merge(merged[:0])
		if o.candidateErec(merged) >= o.MinRec {
			keep = append(keep, condKeep{item: t.order[pr], sup: sup[pr], trank: int32(pr)})
		} else {
			ms.pruned++
		}
	}
	ms.putBuf(merged)
	ms.keep = keep
	if len(keep) == 0 {
		ms.releaseBase(subtree)
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
	order := make([]tsdb.ItemID, len(keep))
	condRank := growN(&ms.condRank, r) // tree rank -> conditional rank
	for i := range condRank {
		condRank[i] = nilNode
	}
	for i, k := range keep {
		order[i] = k.item
		condRank[k.trank] = int32(i)
	}

	// Second pass: insert the filtered, re-ranked prefix paths.
	ct := newRPTree(dst, order)
	path := ms.path[:0]
	for bi := range base {
		bp := &base[bi]
		path = path[:0]
		for _, tr := range rankBuf[bp.rankLo:bp.rankHi] {
			if cr := condRank[tr]; cr != nilNode {
				path = append(path, cr)
			}
		}
		if len(path) == 0 {
			continue
		}
		slices.Sort(path)
		ct.insertRanks(path, bp.ts, bp.runs)
	}
	ms.path = path
	ms.releaseBase(subtree)
	return ct
}
