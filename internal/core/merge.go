package core

import (
	"math/bits"
	"slices"

	"github.com/recurpat/rp/internal/obs"
)

// Union machinery for the RP-tree's transaction lists. Every list in the
// tree is a node's subtree range: an unordered bag of transaction indices
// (tids: positions in db.Trans), and the bags gathered for one sorted view
// are disjoint: a transaction reaches a given item's nodes along exactly
// one tree path.
// tsdb.DB orders its transactions strictly by timestamp, so ascending tid
// order is ascending timestamp order, and the sorted timestamp list of a
// union is a bitmap scan: scatter every tid into a two-level bitmap sized
// to |TDB|, then walk the touched words in ascending order appending
// ts[tid]. A union costs O(n + touched words), not a merge's O(n log k),
// however many bags it gathers.

// mergeScratch holds the reusable buffers of one miner: the staged tid
// bags, the union bitmap, a free list of timestamp buffers, and the
// conditional-tree construction scratch. A zero value is ready to use. Not
// safe for concurrent use; the parallel miner gives each worker its own.
// conditionalTree never overlaps its own recursion (each call completes
// before mining recurses), so one set of buffers per miner suffices.
type mergeScratch struct {
	bags [][]int32 // tid bags staged for the next merge, reused per call
	u    tidUnion  // union bitmap, all zero between merges
	free [][]int64 // timestamp buffer free list

	// conditionalTree scratch (see rptree.go):
	base    []rankPath // base paths of the current call
	sup     []int      // per-rank conditional support
	cur     []int      // CSR offsets / fill cursors
	pathIdx []int32    // CSR payload: base-path indices per rank
	keep    []condKeep // items surviving the Erec check
	spans   []span     // the kept items' base-path lists, in conditional rank order
	build   treeBuild  // the conditional tree's construction scratch

	// pruned counts the prefix items conditionalTree dropped by the Erec
	// check since the owning miner last collected them (miner.prune).
	pruned int

	// lc, when non-nil, is the owning miner's local trace batch: merge
	// times a ts-merge observation per call into it. nil (the untraced
	// default) keeps the hot path at a single pointer check.
	lc *obs.Local
}

// getBuf hands out an empty timestamp buffer, reusing returned capacity.
func (ms *mergeScratch) getBuf() []int64 {
	if n := len(ms.free); n > 0 {
		b := ms.free[n-1]
		ms.free = ms.free[:n-1]
		return b[:0]
	}
	return nil
}

// putBuf returns a buffer to the free list. The caller must not use b (or
// anything aliasing it) afterwards.
func (ms *mergeScratch) putBuf(b []int64) {
	if cap(b) == 0 {
		return
	}
	ms.free = append(ms.free, b[:0])
}

// merge appends the timestamps of the staged bags' union to dst in
// ascending order, where ts maps each tid to its timestamp, and unstages
// the bags. With a trace batch attached, each call records one ts-merge
// observation with its wall time.
func (ms *mergeScratch) merge(ts, dst []int64) []int64 {
	if ms.lc == nil {
		return ms.union(ts, dst)
	}
	start := obs.Now()
	dst = ms.union(ts, dst)
	ms.lc.Observe(obs.PhaseMerge, obs.Since(start), 1)
	return dst
}

func (ms *mergeScratch) union(ts, dst []int64) []int64 {
	u := &ms.u
	u.size(len(ts))
	n := 0
	for _, b := range ms.bags {
		u.add(b)
		n += len(b)
	}
	ms.bags = ms.bags[:0]
	return u.appendTo(dst, ts, n)
}

// tidUnion is a two-level bitmap over the tids of one database: bit tid%64
// of words[tid/64], and a summary with bit w%64 of summary[w/64] set iff
// words[w] is non-zero. add tracks the touched summary range [lo, hi), so a
// scan visits only the words a union touched, and leaves everything zero.
type tidUnion struct {
	words   []uint64
	summary []uint64
	lo, hi  int
}

// size makes the bitmap cover tids [0, n). A bitmap is all zero between
// unions, so growing it just replaces it.
func (u *tidUnion) size(n int) {
	if nw := (n + 63) >> 6; nw > len(u.words) {
		u.words = make([]uint64, nw)
		u.summary = make([]uint64, (nw+63)>>6)
		u.lo, u.hi = len(u.summary), 0
	}
}

// add sets the bits of tids.
func (u *tidUnion) add(tids []int32) {
	words, summary := u.words, u.summary
	lo, hi := u.lo, u.hi
	for _, t := range tids {
		w := uint32(t) >> 6
		words[w] |= 1 << (uint32(t) & 63)
		s := int(w >> 6)
		summary[s] |= 1 << (w & 63)
		lo, hi = min(lo, s), max(hi, s+1)
	}
	u.lo, u.hi = lo, hi
}

// appendTo appends ts[tid] for every set tid, ascending, to dst and clears
// the bitmap. n, the staged tid count, bounds the set bits.
func (u *tidUnion) appendTo(dst, ts []int64, n int) []int64 {
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	i := 0
	for s := u.lo; s < u.hi; s++ {
		sw := u.summary[s]
		u.summary[s] = 0
		for sw != 0 {
			w := s<<6 | bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := u.words[w]
			u.words[w] = 0
			for word != 0 {
				out[i] = ts[w<<6|bits.TrailingZeros64(word)]
				i++
				word &= word - 1
			}
		}
	}
	u.lo, u.hi = len(u.summary), 0
	return dst[:len(dst)+i]
}
