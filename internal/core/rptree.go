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
// (Lemma 3), so interior nodes accumulate them too.
//
// A node's ts-list is held as an unordered bag of transaction indices (tids,
// positions in db.Trans); the tree's ts map turns them into timestamps, and
// every sorted view is a union of bags (see merge.go), so appends and
// push-ups never order anything.
type rpNode struct {
	item        tsdb.ItemID
	rank        int32 // position of item in the owning tree's order
	parent      int32
	firstChild  int32
	nextSibling int32
	link        int32   // next node carrying the same item (header chain)
	tids        []int32 // transactions recorded here, in no particular order
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
// tid capacity is salvaged (truncated, not dropped): conditional trees are
// rebuilt in the same slab region over and over during mining, and reusing
// the per-slot list storage removes almost all of their append allocations.
// A tid backing belongs to exactly one slot at a time and every insert
// copies tid values, so a salvaged buffer can never alias a live list.
func (a *nodeArena) newNode(item tsdb.ItemID, rank, parent int32) int32 {
	idx := len(a.nodes)
	if idx < cap(a.nodes) {
		a.nodes = a.nodes[:idx+1]
		n := &a.nodes[idx]
		n.item, n.rank, n.parent = item, rank, parent
		n.firstChild, n.nextSibling, n.link = nilNode, nilNode, nilNode
		n.tids = n.tids[:0]
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
	ts         []int64       // tid -> timestamp, shared by every tree of a mine
	order      []tsdb.ItemID // tree item order, most frequent first
	headers    []int32       // first node per rank, nilNode when empty
	rootByRank []int32       // root's child per rank (O(1) insert lookup)
	nodes      int           // nodes created (stats)
}

// rpArena aliases nodeArena so rpTree reads naturally; kept distinct from
// the merge scratch, which is per-miner, not per-tree.
type rpArena = nodeArena

// newRPTree prepares an empty tree over the given item order and tid map,
// carving its root from a.
func newRPTree(a *nodeArena, order []tsdb.ItemID, ts []int64) *rpTree {
	t := &rpTree{
		arena:      a,
		ts:         ts,
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
// increasing sequence of tree ranks, recording the tids at the tail node
// (Algorithm 3, insert_tree). Tid values are copied, never aliased.
func (t *rpTree) insertRanks(ranks []int32, tids []int32) {
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
		a.nodes[cur].tids = append(a.nodes[cur].tids, tids...)
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
// tree with the transaction's index recorded at the tail node. The tree owns
// a fresh arena and the tid map every tree of the mine shares.
func buildRPTree(db *tsdb.DB, list *RPList) *rpTree {
	order := make([]tsdb.ItemID, len(list.Candidates))
	for i, e := range list.Candidates {
		order[i] = e.Item
	}
	t := newRPTree(&nodeArena{}, order, make([]int64, len(db.Trans)))
	var ranks []int32
	var tidOne [1]int32
	for i, tr := range db.Trans {
		t.ts[i] = tr.TS
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
		tidOne[0] = int32(i)
		t.insertRanks(ranks, tidOne[:])
	}
	return t
}

// stage puts the tid bags of every node carrying the item at rank r on ms
// for the next merge, and returns how many tids they hold: the support of
// the suffix pattern being processed. During sequential mining the nodes'
// own bags are TS^beta, because deeper items have already pushed theirs up
// (Lemma 3). subtree stages each node's whole subtree instead, for the
// parallel miner, which reads a shared immutable tree and so cannot rely
// on push-ups having happened.
func (t *rpTree) stage(ms *mergeScratch, r int, subtree bool) int {
	a := t.arena
	bags := ms.bags[:0]
	for n := t.headers[r]; n != nilNode; n = a.nodes[n].link {
		if subtree {
			bags = t.appendSubtree(bags, n)
		} else {
			bags = append(bags, a.nodes[n].tids)
		}
	}
	ms.bags = bags
	n := 0
	for _, b := range bags {
		n += len(b)
	}
	return n
}

// appendSubtree appends the non-empty tid bags of n's subtree to dst.
func (t *rpTree) appendSubtree(dst [][]int32, n int32) [][]int32 {
	a := t.arena
	if len(a.nodes[n].tids) > 0 {
		dst = append(dst, a.nodes[n].tids)
	}
	for c := a.nodes[n].firstChild; c != nilNode; c = a.nodes[c].nextSibling {
		dst = t.appendSubtree(dst, c)
	}
	return dst
}

// pushUp implements Lemma 3 and line 9 of Algorithm 4: every node carrying
// the item at rank r hands its tids to its parent. Tids pushed to the root
// (projections that contained only this item) are discarded; the
// transactions they identify contain no other candidate item. The nodes stay
// linked in the slab — bottom-up mining never revisits rank r, and only the
// parallel miner walks child links, on a tree that is never pushed up.
func (t *rpTree) pushUp(r int) {
	a := t.arena
	for ni := t.headers[r]; ni != nilNode; {
		n := &a.nodes[ni]
		ni = n.link
		if n.parent != t.root {
			a.nodes[n.parent].tids = append(a.nodes[n.parent].tids, n.tids...)
		}
		n.tids = n.tids[:0] // keep capacity for slot salvage
	}
	t.headers[r] = nilNode
}

// basePath is one prefix path of the suffix item, restricted to candidate
// ancestors: the tree ranks of the ancestors (root-most first, ascending,
// stored as [rankLo:rankHi) of the scratch's shared rankBuf backing) and the
// path's tids.
type basePath struct {
	rankLo, rankHi int32
	tids           []int32
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

// conditionalTree builds the conditional RP-tree for the item at rank r
// (Algorithm 4 line 4): the prefix paths of the item's nodes, restricted to
// items whose conditional Erec passes the candidate check (computed from
// the per-item ts-list unions — the "temporary array" of Section 4.2.3),
// re-sorted by conditional support. nil is returned when no item survives.
// Every item the check drops is counted in ms.pruned; an item whose
// conditional support alone bounds its Erec below MinRec is dropped before
// its union is built.
//
// The new tree is carved from dst (the caller's arena), so the shared
// initial tree is never mutated — the parallel miner's workers all read t
// concurrently while building their own conditional trees.
//
// subtree selects how a node's tids are read: the sequential miner reads
// the node's bag directly (push-ups have accumulated descendant tids),
// while the parallel miner gathers each node's subtree.
func (t *rpTree) conditionalTree(dst *nodeArena, ms *mergeScratch, o Options, r int, subtree bool) *rpTree {
	a := t.arena

	// First pass: one base path per node carrying rank r — its candidate
	// ancestors (tree ranks, root-most first, in the shared rankBuf
	// backing) and its tids. All of it lives in pooled per-miner scratch;
	// the only allocations left in this function are the pieces the
	// returned tree retains. A subtree-mode path's tids are its subtree's
	// bags, concatenated into the shared tidBuf backing; a path keeps its
	// slice when a later append moves tidBuf, since the old backing stays
	// intact.
	base, rankBuf, tidBuf := ms.base[:0], ms.rankBuf[:0], ms.tidBuf[:0]
	for ni := t.headers[r]; ni != nilNode; ni = a.nodes[ni].link {
		n := &a.nodes[ni]
		if n.parent == t.root {
			continue
		}
		tids := n.tids
		if subtree {
			lo := len(tidBuf)
			ms.bags = t.appendSubtree(ms.bags[:0], ni)
			for _, b := range ms.bags {
				tidBuf = append(tidBuf, b...)
			}
			tids = tidBuf[lo:]
		}
		if len(tids) == 0 {
			continue
		}
		lo := int32(len(rankBuf))
		for p := n.parent; p != t.root; p = a.nodes[p].parent {
			rankBuf = append(rankBuf, a.nodes[p].rank)
		}
		slices.Reverse(rankBuf[lo:]) // root-most first
		base = append(base, basePath{rankLo: lo, rankHi: int32(len(rankBuf)), tids: tids})
	}
	ms.base, ms.rankBuf, ms.tidBuf = base, rankBuf, tidBuf
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
	for bi := range base {
		bp := &base[bi]
		for _, pr := range rankBuf[bp.rankLo:bp.rankHi] {
			cur[pr+1]++
			sup[pr] += len(bp.tids)
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
		if o.erecBound(sup[pr]) < o.MinRec {
			ms.pruned++
			continue
		}
		bags := ms.bags[:0]
		for _, bi := range pathIdx[lo:hi] {
			bags = append(bags, base[bi].tids)
		}
		ms.bags = bags
		merged = ms.merge(t.ts, merged[:0])
		if o.candidateErec(merged) >= o.MinRec {
			keep = append(keep, condKeep{item: t.order[pr], sup: sup[pr], trank: int32(pr)})
		} else {
			ms.pruned++
		}
	}
	ms.putBuf(merged)
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
	ct := newRPTree(dst, order, t.ts)
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
		ct.insertRanks(path, bp.tids)
	}
	ms.path = path
	return ct
}
