package core

import (
	"math/bits"
	"time"

	"github.com/recurpat/rp/internal/obs"
)

// Union machinery for the RP-tree's transaction lists. Every list in the
// tree is a node's subtree range: an unordered bag of transaction indices
// (tids: positions in db.Trans), and the bags gathered for one union are
// disjoint: a transaction reaches a given item's nodes along exactly one
// tree path.
// tsdb.DB orders its transactions strictly by timestamp, so ascending tid
// order is ascending timestamp order, and walking a union in timestamp
// order is a bitmap scan: scatter every tid into a two-level bitmap sized
// to |TDB|, then walk the touched words in ascending order reading
// ts[tid]. A union costs O(n + touched words), not a merge's O(n log k),
// however many bags it gathers. The scan folds the timestamps' periodic
// runs as it goes, so no sorted list is ever written out.

// mergeScratch holds the reusable buffers of one miner: the union bitmap
// and the conditional-tree construction scratch. A zero value is ready to
// use. Not safe for concurrent use; the parallel miner gives each worker
// its own. conditionalTree never overlaps its own recursion (each call
// completes before mining recurses), so one set of buffers per miner
// suffices.
type mergeScratch struct {
	u tidUnion // union bitmap, all zero between folds

	// conditionalTree scratch (see rptree.go):
	base    []rankPath // base paths of the current call
	sup     []int      // per-rank conditional support
	cur     []int      // CSR offsets / fill cursors
	pathIdx []int32    // CSR payload: base-path indices per rank
	keep    []condKeep // items surviving the Erec check
	spans   []span     // the kept items' base-path lists, in conditional rank order
	sweep   rankSweep  // the conditional tree's construction scratch

	// pruned counts the prefix items conditionalTree dropped by the Erec
	// check since the owning miner last collected them (miner.prune).
	pruned int

	// lc, when non-nil, is the owning miner's local trace batch: fold
	// times a ts-merge observation per call into it. nil (the untraced
	// default) keeps the hot path at a single pointer check.
	lc *obs.Local
}

// fold unions the tid bags of t's base paths base[idx], walks the union in
// timestamp order and folds its periodic runs under o: it appends the
// interesting intervals to *ipi and returns Erec. With a trace batch
// attached, each call records one ts-merge observation with its wall time.
func (ms *mergeScratch) fold(t *rpTree, base []rankPath, idx []int32, o Options, ipi *[]Interval) int {
	var start time.Time
	if ms.lc != nil {
		start = obs.Now()
	}
	u := &ms.u
	u.size(len(t.ts))
	for _, bi := range idx {
		bp := &base[bi]
		u.add(t.tids[bp.tlo:bp.thi])
	}
	erec := u.fold(t.ts, o.Per, o.MinPS, ipi)
	if ms.lc != nil {
		ms.lc.Observe(obs.PhaseMerge, obs.Since(start), 1)
	}
	return erec
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

// fold walks the set tids in ascending order, reading ts[tid], and clears
// the bitmap. It folds the timestamps' periodic intervals (paper
// Definition 5, gaps of at most per) in the same pass, as Recurrence and
// Erec would over the sorted list: every interval whose periodic support
// reaches minPS is appended to *ipi, and Erec, the sum of floor(ps/minPS)
// over all intervals, is returned.
func (u *tidUnion) fold(ts []int64, per int64, minPS int, ipi *[]Interval) (erec int) {
	out := *ipi
	var first, last int64
	ps := 0
	for s := u.lo; s < u.hi; s++ {
		sw := u.summary[s]
		u.summary[s] = 0
		for sw != 0 {
			w := s<<6 | bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := u.words[w]
			u.words[w] = 0
			for word != 0 {
				t := ts[w<<6|bits.TrailingZeros64(word)]
				word &= word - 1
				if ps > 0 && t-last <= per {
					ps++
					last = t
					continue
				}
				erec += ps / minPS
				if ps >= minPS {
					out = append(out, Interval{Start: first, End: last, PS: ps})
				}
				first, last, ps = t, t, 1
			}
		}
	}
	erec += ps / minPS
	if ps >= minPS {
		out = append(out, Interval{Start: first, End: last, PS: ps})
	}
	u.lo, u.hi = len(u.summary), 0
	*ipi = out
	return erec
}
