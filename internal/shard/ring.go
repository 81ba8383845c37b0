package shard

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// ringVnodes is the number of virtual nodes per peer on the consistent
// hash ring. Enough to spread a handful of peers' arcs evenly; the peer
// sets here are single-digit, not datacenter-sized.
const ringVnodes = 64

// mix64 is the splitmix64 finalizer. FNV-1a alone is a poor circle hash:
// similar inputs (one peer's "url#0".."url#63" vnode names, one plan's
// task keys) keep their shared prefix in the high bits, so a peer's 64
// vnodes collapse into one narrow band and a plan's tasks all fall into
// the same inter-point gap — every task of a mine homing on one peer. The
// finalizer's avalanche spreads both over the whole circle.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// ringPoint is one virtual node: a position on the hash circle owned by a
// peer (indexed into the client's sorted peer list).
type ringPoint struct {
	hash uint64
	peer int
}

// ring is a consistent hash ring over a fixed peer set. Task keys map to
// the first virtual node clockwise; the failover sequence continues
// clockwise through the remaining peers, so retries have a deterministic,
// key-dependent peer order and a peer-set change only remaps the arcs the
// changed peer owned.
type ring struct {
	points []ringPoint
	peers  int
}

// newRing builds the ring over peers (identified by index into a sorted
// URL list; the URLs only matter as hash salt).
func newRing(urls []string) (ring, error) {
	if len(urls) == 0 {
		return ring{}, fmt.Errorf("shard: a peer ring needs at least one peer")
	}
	r := ring{points: make([]ringPoint, 0, len(urls)*ringVnodes), peers: len(urls)}
	for i, u := range urls {
		for v := 0; v < ringVnodes; v++ {
			h := fnv.New64a()
			_, _ = fmt.Fprintf(h, "%s#%d", u, v)
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), peer: i})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		switch {
		case a.hash < b.hash:
			return -1
		case a.hash > b.hash:
			return 1
		default:
			return a.peer - b.peer
		}
	})
	return r, nil
}

// sequence returns the distinct peers in clockwise ring order starting at
// key's successor point: sequence(k)[0] is the task's home peer, the rest
// the failover order retries walk.
func (r ring) sequence(key uint64) []int {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	seq := make([]int, 0, r.peers)
	seen := make([]bool, r.peers)
	for i := 0; i < len(r.points) && len(seq) < r.peers; i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			seq = append(seq, p)
		}
	}
	return seq
}
