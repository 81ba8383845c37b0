package core

import (
	"math"
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
// The tid array is filled in pre-order, so every node's subtree is one
// contiguous range tids[lo:hi], the node's own tail tids first, then its
// children's ranges. The range is exactly the ts-list that pushing every
// deeper node's list up to its parent (Lemma 3) would accumulate at the
// node, so mining reads TS^beta straight off the ranges and never mutates
// the tree. The root holds no node: its range is the whole tid array.
//
// A node's root path, the ranks from the root down to the node, is
// paths[pathLo:pathHi] of the tree's path slab: the leading ranks of the
// first rank path that reached the node, which every path through the node
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
// themselves: each tree's header, item order and per-rank table.
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
// are one block of the node slab, in pre-order.
type rpTree struct {
	arena *nodeArena
	tids  []int32       // every node's subtree range, see rpNode
	paths []int32       // the rank paths the tree was built from
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

// rankNodes returns the nodes of rank r, in pre-order.
func (t *rpTree) rankNodes(r int) []rpNode {
	sp := t.ranks[r].nodes
	return t.arena.nodes[sp.lo:sp.hi]
}

// rankPath is one rank path a tree is built from, with the tid bag of the
// transactions it stands for: ranks paths[lo:hi], strictly ascending, and
// tids src[tlo:thi] of the build's tid source.
type rankPath struct {
	lo, hi, tlo, thi int32
}

// treeBuild is the scratch of top-down tree construction. A zero value is
// ready to use; conditional trees reuse one per miner.
type treeBuild struct {
	tmp   []rankPath // bucketing scatter target
	keys  []uint64   // per grouped path: bucket key << 32 | position
	cnt   []int32    // counting-sort buckets, then build's per-rank node cursors
	ends  []int32    // stack of the bucket ends of the groups being sorted
	lcp   []int32    // per sorted path: leading ranks shared with the previous
	stack []int32    // the open nodes of the emit pass, root-most first
}

// build makes the tree of order's items from its rank paths ps, whose ranks
// lie in paths and whose bags index src, carving nodes and tids from a.
// ranks carries each rank's fold; build lays out its node block. ps is
// reordered.
//
// The paths are bucketed top-down (sort), which puts them in pre-order and
// tells how many leading ranks each shares with the one before it. Those
// counts size every rank's block of the node slab exactly before any node
// exists. One pass over the paths then emits the nodes: a path closes the
// open nodes below the ranks it shares, opens one node per further rank at
// the next slot of that rank's block, and appends its tids at the cursor.
// Tids, and each rank's nodes, thus come out in pre-order, and a node's
// range runs from the tid cursor at its opening to the cursor at its close.
func (b *treeBuild) build(a *nodeArena, order []tsdb.ItemID, ranks []treeRank, ts []int64, paths []int32, ps []rankPath, src []int32) *rpTree {
	t := &carve(&a.trees, 1)[0]
	*t = rpTree{arena: a, paths: paths, ts: ts, order: order, ranks: ranks}
	lcp := growN(&b.lcp, len(ps))
	if len(ps) > 0 {
		lcp[0] = 0
		b.sort(paths, ps, lcp, 0)
	}
	next := growN(&b.cnt, len(ranks)) // per rank: its node count, then its next free slot
	clear(next)
	ntids := 0
	for i, p := range ps {
		for _, rank := range paths[p.lo+lcp[i] : p.hi] {
			next[rank]++
		}
		ntids += int(p.thi - p.tlo)
	}
	at := int32(len(a.nodes))
	for r, n := range next {
		ranks[r].nodes = span{at, at + n}
		next[r] = at
		at += n
	}
	t.nodes = int(at) - len(a.nodes)
	t.tids = carve(&a.tids, ntids)
	nodes := slices.Grow(a.nodes, t.nodes)[:at]
	stack, cur := b.stack[:0], int32(0)
	for i, p := range ps {
		shared := lcp[i]
		for _, n := range stack[shared:] {
			nodes[n].hi = cur
		}
		stack = stack[:shared]
		for k := p.lo + shared; k < p.hi; k++ {
			n := next[paths[k]]
			next[paths[k]]++
			nodes[n] = rpNode{lo: cur, pathLo: p.lo, pathHi: k + 1}
			stack = append(stack, n)
		}
		cur += int32(copy(t.tids[cur:], src[p.tlo:p.thi]))
	}
	for _, n := range stack {
		nodes[n].hi = cur
	}
	a.nodes, b.stack = nodes, stack
	return t
}

// sort orders ps, rank paths sharing their first d ranks, so that a path
// comes before its extensions and paths sharing a longer prefix are
// adjacent: it buckets them by their rank at depth d, the paths ending
// there first, then sorts each bucket one rank deeper. It records in lcp,
// for every position but the first, how many leading ranks the path there
// shares with the one before.
func (b *treeBuild) sort(paths []int32, ps []rankPath, lcp []int32, d int32) {
	if len(ps) < 2 {
		return
	}
	mark := len(b.ends)
	b.bucket(paths, ps, d)
	start, end := int32(0), len(b.ends)
	for i := mark; i < end; i++ {
		stop := b.ends[i]
		if start > 0 {
			lcp[start] = d
		}
		if ps[start].lo+d < ps[start].hi {
			b.sort(paths, ps[start:stop], lcp[start:stop], d+1)
		} else {
			for j := start + 1; j < stop; j++ {
				lcp[j] = d // identical paths, ending at depth d
			}
		}
		start = stop
	}
	b.ends = b.ends[:mark]
}

// bucket sorts ps, rank paths sharing their first d ranks, by their rank at
// depth d, the paths ending there first, and pushes each non-empty bucket's
// end onto b.ends. A counting sort serves groups whose key span is small
// next to their size; a sort of packed keys serves the rest, which lie deep
// in the tree and are small. Both are stable, so every tree is built alike.
func (b *treeBuild) bucket(paths []int32, ps []rankPath, d int32) {
	keys := growN(&b.keys, len(ps))
	kmin, kmax := uint64(math.MaxUint32), uint64(0)
	for j, p := range ps {
		k := uint64(0) // ends at depth d
		if p.lo+d < p.hi {
			k = uint64(paths[p.lo+d]) + 1
		}
		keys[j] = k<<32 | uint64(j)
		kmin, kmax = min(kmin, k), max(kmax, k)
	}
	tmp := growN(&b.tmp, len(ps))
	if span := int(kmax - kmin + 1); span <= 2*len(ps) {
		cnt := growN(&b.cnt, span+1)
		clear(cnt)
		for _, k := range keys {
			cnt[k>>32-kmin+1]++
		}
		for i := 1; i <= span; i++ {
			cnt[i] += cnt[i-1]
		}
		for j, k := range keys {
			c := &cnt[k>>32-kmin]
			tmp[*c] = ps[j]
			*c++
		}
		prev := int32(0)
		for _, e := range cnt[:span] {
			if e != prev {
				b.ends = append(b.ends, e)
				prev = e
			}
		}
	} else {
		slices.Sort(keys)
		for j, k := range keys {
			tmp[j] = ps[uint32(k)]
			if j+1 == len(keys) || keys[j+1]>>32 != k>>32 {
				b.ends = append(b.ends, int32(j+1))
			}
		}
	}
	copy(ps, tmp)
}

// buildRPTree performs the second database scan of RP-growth (Algorithm 2):
// every transaction's candidate item projection becomes one rank path, and
// the prefix tree of those paths is built top-down, each transaction's
// index landing at its projection's tail node. The tree owns a fresh arena
// and the tid map every tree of the mine shares; its ranks take their folds
// from the RP-list.
//
// The scan files each transaction under the ranks it holds, one list per
// rank sized by the item's support; dealing the lists out makes the
// projections, rank-sorted with no sort per transaction.
func buildRPTree(db *tsdb.DB, list *RPList) *rpTree {
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
	ts := make([]int64, len(db.Trans))
	tids := make([]int32, len(db.Trans)) // the bags: tid i is tids[i:i+1]
	base := make([]rankPath, len(db.Trans))
	cols := make([]int32, total)
	for i, tr := range db.Trans {
		ts[i], tids[i] = tr.TS, int32(i)
		base[i] = rankPath{tlo: int32(i), thi: int32(i) + 1}
		for _, it := range tr.Items {
			if r := list.Rank[it]; r >= 0 {
				cols[spans[r].hi] = int32(i)
				spans[r].hi++
			}
		}
	}
	a := &nodeArena{}
	paths, ps := dealPaths(&a.paths, base, cols, spans)
	var b treeBuild
	return b.build(a, order, ranks, ts, paths, ps, tids)
}

// span is a range lo:hi of an index list.
type span struct{ lo, hi int32 }

// dealPaths makes a tree's rank paths from base paths: rank i of the new
// tree goes to the base paths idx[spans[i].lo:spans[i].hi]. Dealing the
// ranks in ascending order lays every path out sorted. The ranks are
// carved from slab and returned with the non-empty paths, compacted in
// base, whose own rank ranges are overwritten; the paths' bags stay.
func dealPaths(slab *[]int32, base []rankPath, idx []int32, spans []span) ([]int32, []rankPath) {
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
	paths := carve(slab, int(w))
	for i, sp := range spans {
		for _, bi := range idx[sp.lo:sp.hi] {
			bp := &base[bi]
			paths[bp.hi] = int32(i)
			bp.hi++
		}
	}
	ps := base[:0]
	for _, bp := range base {
		if bp.hi > bp.lo {
			ps = append(ps, bp)
		}
	}
	return paths, ps
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

	// Second pass: the base paths' kept ancestors, re-ranked, are the new
	// tree's rank paths, dealt out through the CSR index; their bags stay
	// ranges of t's tids.
	paths, ps := dealPaths(&dst.paths, base, pathIdx, spans)
	return ms.build.build(dst, order, ranks, t.ts, paths, ps, t.tids)
}
