package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

func TestShardSpecValidate(t *testing.T) {
	cases := []struct {
		spec ShardSpec
		ok   bool
	}{
		{ShardSpec{0, 1}, true},
		{ShardSpec{0, 4}, true},
		{ShardSpec{3, 4}, true},
		{ShardSpec{4, 4}, false},
		{ShardSpec{-1, 4}, false},
		{ShardSpec{0, 0}, false},
		{ShardSpec{0, -2}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("ShardSpec%+v.Validate() = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

func TestShardSpecOwnsPartition(t *testing.T) {
	// For every count, the shards partition the ranks: each rank is owned
	// by exactly one shard.
	for count := 1; count <= 7; count++ {
		for rank := 0; rank < 50; rank++ {
			owners := 0
			for idx := 0; idx < count; idx++ {
				if (ShardSpec{Index: idx, Count: count}).Owns(rank) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("rank %d owned by %d of %d shards", rank, owners, count)
			}
		}
	}
}

// TestMineShardEquivalence is the core half of the gather-determinism
// property: for shard counts 1, 2, 3 and 7, mining every shard separately
// and merging with Result.Merge reproduces the single-box MineContext
// output and stats exactly (TreeNodes aside), across item orders and the
// pruning ablation.
func TestMineShardEquivalence(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		db := randomDB(rng, 8, 60, 0.35)
		for _, o := range []Options{
			{Per: 4, MinPS: 2, MinRec: 1},
			{Per: 6, MinPS: 3, MinRec: 2, Parallelism: 3},
			{Per: 4, MinPS: 2, MinRec: 1, ItemOrder: Lexicographic},
			{Per: 4, MinPS: 2, MinRec: 1, DisableErecPruning: true},
			{Per: 5, MinPS: 2, MinRec: 1, MaxLen: 2},
		} {
			o.CollectStats = true
			want, err := MineContext(ctx, db, o)
			if err != nil {
				t.Fatalf("seed %d: MineContext: %v", seed, err)
			}
			for _, count := range []int{1, 2, 3, 7} {
				parts := make([]*Result, count)
				for idx := 0; idx < count; idx++ {
					parts[idx], err = MineShardContext(ctx, db, o, ShardSpec{Index: idx, Count: count})
					if err != nil {
						t.Fatalf("seed %d count %d shard %d: %v", seed, count, idx, err)
					}
				}
				got := &Result{}
				for _, p := range parts {
					got.Merge(p)
				}
				got.Canonicalize()
				if !got.Equal(want) {
					t.Fatalf("seed %d opts %+v: %d-shard merge diverges from single-box mine: %d vs %d patterns",
						seed, o, count, len(got.Patterns), len(want.Patterns))
				}
				// Shard pattern counts sum exactly: ranks partition, so no
				// pattern is mined twice.
				sum := 0
				for _, p := range parts {
					sum += len(p.Patterns)
				}
				if sum != len(want.Patterns) {
					t.Fatalf("seed %d count %d: shard patterns sum to %d, want %d", seed, count, sum, len(want.Patterns))
				}
				// The merged stats are the single-box stats, TreeNodes
				// aside (one initial tree per shard).
				gs, ws := got.Stats, want.Stats
				gs.TreeNodes, ws.TreeNodes = 0, 0
				if gs != ws {
					t.Fatalf("seed %d count %d: merged stats %+v, want %+v", seed, count, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestShardTreeKeepsOwnedRanks checks a shard's truncated initial tree
// against the full one: for shard counts 1..7 on generated DBs, every owned
// rank's nodes have the same root paths and tid sets in both trees, which
// is all that mining the rank reads. The shard trees of a count together
// hold every node of the full tree, and some hold fewer nodes than it.
func TestShardTreeKeepsOwnedRanks(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 4))
	smaller := 0
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 3+rng.IntN(8), 20+rng.IntN(80), 0.2+0.4*rng.Float64())
		o := Options{Per: 1 + rng.Int64N(4), MinPS: 1 + rng.IntN(3), MinRec: 1 + rng.IntN(3)}
		list := BuildRPList(db, o)
		full := buildRPTree(db, list, ShardSpec{Count: 1})
		for count := 1; count <= 7; count++ {
			nodes := 0
			for idx := 0; idx < count; idx++ {
				spec := ShardSpec{Index: idx, Count: count}
				cut := buildRPTree(db, list, spec)
				nodes += cut.nodes
				if cut.nodes < full.nodes {
					smaller++
				}
				for r := range cut.order {
					if got, want := rankSets(cut, r), rankSets(full, r); spec.Owns(r) && !maps.EqualFunc(got, want, slices.Equal[[]int32]) {
						t.Fatalf("trial %d %+v: owned rank %d's nodes hold %v, the full tree's %v", trial, spec, r, got, want)
					}
				}
			}
			if nodes < full.nodes || count == 1 && nodes != full.nodes {
				t.Fatalf("trial %d: %d shard trees hold %d nodes, the full tree %d", trial, count, nodes, full.nodes)
			}
		}
	}
	if smaller == 0 {
		t.Fatal("no shard tree is smaller than the full tree; nothing was truncated")
	}
}

// rankSets maps the root path of each of rank r's nodes to the tids of its
// range, sorted.
func rankSets(t *rpTree, r int) map[string][]int32 {
	m := map[string][]int32{}
	for _, nd := range t.rankNodes(r) {
		tids := slices.Clone(t.tids[nd.lo:nd.hi])
		slices.Sort(tids)
		m[fmt.Sprint(t.paths[nd.pathLo:nd.pathHi])] = tids
	}
	return m
}

// TestMineShardSingleIsFull pins that the {0,1} spec is exactly MineContext.
func TestMineShardSingleIsFull(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	db := randomDB(rng, 6, 50, 0.4)
	o := Options{Per: 4, MinPS: 2, MinRec: 1, CollectStats: true}
	want, err := MineContext(context.Background(), db, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineShardContext(context.Background(), db, o, ShardSpec{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("single-shard mine diverges: %d vs %d patterns", len(got.Patterns), len(want.Patterns))
	}
	if got.Stats.CandidateItems != want.Stats.CandidateItems {
		t.Errorf("CandidateItems = %d, want %d", got.Stats.CandidateItems, want.Stats.CandidateItems)
	}
}

// TestMineShardCancel pins the cancellation contract: a cancelled context
// yields a *CancelError, as MineContext does.
func TestMineShardCancel(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	db := randomDB(rng, 6, 50, 0.4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MineShardContext(ctx, db, Options{Per: 4, MinPS: 2, MinRec: 1}, ShardSpec{Index: 0, Count: 2})
	var cerr *CancelError
	if !errors.As(err, &cerr) {
		t.Fatalf("want *CancelError, got %v", err)
	}
}

// TestMineShardBadSpec pins spec validation at the entry point.
func TestMineShardBadSpec(t *testing.T) {
	db := tsdb.NewBuilder().Build()
	_, err := MineShardContext(context.Background(), db, Options{Per: 1, MinPS: 1, MinRec: 1}, ShardSpec{Index: 2, Count: 2})
	if err == nil {
		t.Fatal("want error for out-of-range shard index")
	}
}
