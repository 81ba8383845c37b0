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
// reference each other by int32 index, so the slab holds no pointers. The
// node's item is its tree's order[rank]. Unlike an FP-tree node it carries
// no support count; instead, the transactions whose candidate projection
// ends at a node (its tail tids) are recorded in the tree's tid array.
//
// That array is laid out so that every node's subtree is one contiguous
// range tids[lo:hi], the node's own tail tids first, then its children's
// ranges. The range is exactly the ts-list that pushing every deeper node's
// list up to its parent (Lemma 3) would accumulate at the node, so mining
// reads TS^beta straight off the ranges and never mutates the tree.
//
// A tid is a transaction index (a position in db.Trans); the tree's ts map
// turns tids into timestamps, and every sorted view is a union of ranges
// (see merge.go), so a range's tids are in no particular order.
type rpNode struct {
	rank   int32 // position of the node's item in the owning tree's order
	parent int32
	link   int32 // next node carrying the same item (header chain)
	lo, hi int32 // subtree range in the tree's tids
}

// nodeArena is a slab of RP-tree nodes plus a slab of their tids.
// Conditional trees are carved from a per-miner arena stack-wise: mark()
// before building a conditional tree, reset(mark) once its recursion
// returns, so both slabs' capacity is reused across the entire mining run
// instead of being reallocated per tree.
type nodeArena struct {
	nodes []rpNode
	tids  []int32
}

// arenaMark is a position in both of a nodeArena's slabs.
type arenaMark struct{ nodes, tids int }

// newNode appends a fresh node and returns its index. Growing the slab may
// move it, so callers must not hold *rpNode pointers across newNode calls.
func (a *nodeArena) newNode(rank, parent, link int32) int32 {
	a.nodes = append(a.nodes, rpNode{rank: rank, parent: parent, link: link})
	return int32(len(a.nodes) - 1)
}

// allocTids carves n tids off the tid slab. A tree keeps the returned
// slice, so a later growth of the slab leaves its contents in place.
func (a *nodeArena) allocTids(n int) []int32 {
	lo := len(a.tids)
	a.tids = slices.Grow(a.tids, n)[:lo+n]
	return a.tids[lo : lo+n : lo+n]
}

// mark returns the current slab positions for a later reset.
func (a *nodeArena) mark() arenaMark { return arenaMark{len(a.nodes), len(a.tids)} }

// reset truncates the slabs back to a mark, reclaiming every node and tid
// created since without freeing the slabs' backing arrays.
func (a *nodeArena) reset(m arenaMark) {
	a.nodes, a.tids = a.nodes[:m.nodes], a.tids[:m.tids]
}

// rpTree is a prefix tree plus the per-item header chains. The item order is
// support-descending within the tree's own database (the full TDB for the
// initial tree, the conditional pattern base for conditional trees). All
// nodes, including the root, live in the referenced arena.
type rpTree struct {
	arena   *nodeArena
	root    int32
	tids    []int32       // every node's subtree range, see rpNode
	ts      []int64       // tid -> timestamp, shared by every tree of a mine
	order   []tsdb.ItemID // tree item order, most frequent first
	headers []int32       // first node per rank, nilNode when empty
	nodes   int           // nodes created (stats)
}

// treeBuild is the scratch of one tree construction: the child links that
// insert walks, which the finished tree does not keep. A zero value is
// ready to use; conditional trees reuse one per miner.
type treeBuild struct {
	t          *rpTree
	rootByRank []int32     // root's child per rank (O(1) insert lookup)
	links      []buildLink // per node, indexed by node index minus the root's
}

// buildLink is a node's place in its parent's child list, which is sorted by
// rank; the rank is repeated here so a sibling scan reads one array.
type buildLink struct {
	child, sibling, rank int32 // first child, next sibling, the node's rank
}

// start begins a tree over the given item order and tid map, carving its
// root from a.
func (b *treeBuild) start(a *nodeArena, order []tsdb.ItemID, ts []int64) *rpTree {
	t := &rpTree{arena: a, ts: ts, order: order, headers: make([]int32, len(order))}
	for i := range t.headers {
		t.headers[i] = nilNode
	}
	t.root = a.newNode(-1, nilNode, nilNode)
	b.t = t
	b.rootByRank = growN(&b.rootByRank, len(order))
	for i := range b.rootByRank {
		b.rootByRank[i] = nilNode
	}
	b.links = append(b.links[:0], buildLink{nilNode, nilNode, -1})
	return t
}

// insert adds one candidate projection, given as its strictly increasing
// sequence of tree ranks, and returns its tail node (Algorithm 3,
// insert_tree). k is the number of tids the projection carries; they are
// placed once the tree is laid out (layout, place).
func (b *treeBuild) insert(ranks []int32, k int) int32 {
	t := b.t
	a := t.arena
	cur := t.root
	for _, rk := range ranks {
		child := nilNode
		prev := &b.links[cur-t.root].child // link to splice a new child into
		if cur == t.root {
			child = b.rootByRank[rk]
		} else {
			for c := *prev; c != nilNode; c = *prev {
				l := &b.links[c-t.root]
				if l.rank >= rk {
					if l.rank == rk {
						child = c
					}
					break
				}
				prev = &l.sibling
			}
		}
		if child == nilNode {
			child = a.newNode(rk, cur, t.headers[rk])
			t.headers[rk] = child
			t.nodes++
			next := nilNode
			if cur == t.root {
				b.rootByRank[rk] = child
			} else {
				next, *prev = *prev, child
			}
			b.links = append(b.links, buildLink{nilNode, next, rk})
		}
		cur = child
	}
	a.nodes[cur].lo += int32(k)
	a.nodes[cur].hi += int32(k)
	return cur
}

// layout assigns every node its subtree range once all projections are
// inserted, and carves the tree's tids from the arena. On entry lo and hi
// both hold the number of tids whose projection ends at the node. Children
// sit after their parents in the slab, so one backward pass sums subtree
// sizes into hi and one forward pass hands each child the next free stretch
// of its parent's range. On return hi is final and lo is the end of the
// node's own tail slots, which place fills downwards back to the range
// start.
func (b *treeBuild) layout() {
	t := b.t
	nodes := t.arena.nodes[t.root:]
	for i := len(nodes) - 1; i > 0; i-- {
		nodes[nodes[i].parent-t.root].hi += nodes[i].hi
	}
	next := b.links // the child links are dead: reuse as per-node cursors
	for i := range nodes {
		n := &nodes[i]
		start := int32(0)
		if i > 0 {
			p := &next[n.parent-t.root].child
			start = *p
			*p += n.hi
		}
		own := n.lo
		n.lo, n.hi = start+own, start+n.hi
		next[i].child = start + own
	}
	t.tids = t.arena.allocTids(int(nodes[0].hi))
}

// place records tids at their projection's tail node n; laid out, a node
// takes exactly the tids its inserts announced.
func (t *rpTree) place(n int32, tids []int32) {
	nd := &t.arena.nodes[n]
	nd.lo -= int32(len(tids))
	copy(t.tids[nd.lo:], tids)
}

// buildRPTree performs the second database scan of RP-growth (Algorithm 2):
// every transaction's candidate item projection is inserted into the prefix
// tree, and the transaction's index is then placed at its tail node. The
// tree owns a fresh arena and the tid map every tree of the mine shares.
func buildRPTree(db *tsdb.DB, list *RPList) *rpTree {
	order := make([]tsdb.ItemID, len(list.Candidates))
	for i, e := range list.Candidates {
		order[i] = e.Item
	}
	var b treeBuild
	t := b.start(&nodeArena{}, order, make([]int64, len(db.Trans)))
	tails := make([]int32, len(db.Trans))
	var ranks []int32
	for i, tr := range db.Trans {
		t.ts[i] = tr.TS
		tails[i] = nilNode
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
		tails[i] = b.insert(ranks, 1)
	}
	b.layout()
	nodes := t.arena.nodes
	for i, n := range tails {
		if n != nilNode {
			nodes[n].lo--
			t.tids[nodes[n].lo] = int32(i)
		}
	}
	return t
}

// stage puts the subtree ranges of every node carrying the item at rank r
// on ms for the next merge, and returns how many tids they hold: the
// support of the suffix pattern being processed. The ranges together are
// TS^beta, what Lemma 3's push-ups would have gathered at those nodes.
func (t *rpTree) stage(ms *mergeScratch, r int) int {
	a := t.arena
	bags := ms.bags[:0]
	n := 0
	for ni := t.headers[r]; ni != nilNode; ni = a.nodes[ni].link {
		nd := &a.nodes[ni]
		bags = append(bags, t.tids[nd.lo:nd.hi])
		n += int(nd.hi - nd.lo)
	}
	ms.bags = bags
	return n
}

// basePath is one prefix path of the suffix item, restricted to candidate
// ancestors: the tree ranks of the ancestors (root-most first, ascending,
// stored as [rankLo:rankHi) of the scratch's shared rankBuf backing), the
// path's tids (its node's subtree range) and, once inserted into the
// conditional tree, its tail node there.
type basePath struct {
	rankLo, rankHi int32
	tail           int32
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
// The new tree, tids included, is carved from dst (the caller's arena), so
// t is never mutated — the workers of a parallel run all read the shared
// initial tree concurrently while building their own conditional trees.
func (t *rpTree) conditionalTree(dst *nodeArena, ms *mergeScratch, o Options, r int) *rpTree {
	a := t.arena

	// First pass: one base path per node carrying rank r — its candidate
	// ancestors (tree ranks, root-most first, in the shared rankBuf
	// backing) and its tids, the node's subtree range. All of it lives in
	// pooled per-miner scratch; the only allocations left in this function
	// are the pieces the returned tree retains.
	base, rankBuf := ms.base[:0], ms.rankBuf[:0]
	for ni := t.headers[r]; ni != nilNode; ni = a.nodes[ni].link {
		n := &a.nodes[ni]
		if n.parent == t.root {
			continue
		}
		lo := int32(len(rankBuf))
		for p := n.parent; p != t.root; p = a.nodes[p].parent {
			rankBuf = append(rankBuf, a.nodes[p].rank)
		}
		slices.Reverse(rankBuf[lo:]) // root-most first
		base = append(base, basePath{rankLo: lo, rankHi: int32(len(rankBuf)), tids: t.tids[n.lo:n.hi]})
	}
	ms.base, ms.rankBuf = base, rankBuf
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

	// Second pass: insert the filtered, re-ranked prefix paths, lay the
	// tree out, and copy each path's tids to its tail node's slots.
	b := &ms.build
	ct := b.start(dst, order, t.ts)
	path := ms.path[:0]
	for bi := range base {
		bp := &base[bi]
		bp.tail = nilNode
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
		bp.tail = b.insert(path, len(bp.tids))
	}
	ms.path = path
	b.layout()
	for _, bp := range base {
		if bp.tail != nilNode {
			ct.place(bp.tail, bp.tids)
		}
	}
	return ct
}
