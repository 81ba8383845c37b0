package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// testDB builds a deterministic random database: nItems item names over
// nTS timestamps, each (item, ts) pair present with the given density.
func testDB(seed int64, nItems, nTS int, density float64) *tsdb.DB {
	rng := rand.New(rand.NewSource(seed))
	b := tsdb.NewBuilder()
	for ts := 1; ts <= nTS; ts++ {
		for i := 0; i < nItems; i++ {
			if rng.Float64() < density {
				b.Add(fmt.Sprintf("item%02d", i), int64(ts))
			}
		}
	}
	return b.Build()
}

func TestPlan(t *testing.T) {
	tasks := plan(0xdeadbeef, 3)
	if len(tasks) != 3 {
		t.Fatalf("planned %d tasks, want 3", len(tasks))
	}
	for i, task := range tasks {
		if task.Index != i || task.Count != 3 || task.FP != 0xdeadbeef {
			t.Errorf("task %d = %+v", i, task)
		}
	}
}

// Placement walks the sorted peer list as a ring: task i of a plan homes
// on peer (FP + i) mod P and attempt a goes a peers further round.
// placementFixtures builds a client over P peers and one over the same
// peer set listed backwards, each URL twice, once with a trailing slash.
func placementFixtures(t *testing.T, peers int) (urls []string, c, cv *Client) {
	t.Helper()
	var variant []string
	for i := 0; i < peers; i++ {
		urls = append(urls, fmt.Sprintf("http://peer%d:1", i))
	}
	for i := peers - 1; i >= 0; i-- {
		variant = append(variant, urls[i]+"/", urls[i])
	}
	c, err := NewClient(ClientConfig{Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	cv, err = NewClient(ClientConfig{Peers: variant})
	if err != nil {
		t.Fatal(err)
	}
	return urls, c, cv
}

var placementFPs = []uint64{0, 1, 0xdeadbeefcafe, math.MaxUint64}

// TestRingDeterministicSequences pins each task's failover sequence: its
// first P attempts visit every peer exactly once, and the sequence depends
// only on the fingerprint and the peer set (not on the order, duplicates
// or trailing slashes of the peer list).
func TestRingDeterministicSequences(t *testing.T) {
	for peers := 2; peers <= 7; peers++ {
		_, c, cv := placementFixtures(t, peers)
		sorted, sortedV := c.Peers(), cv.Peers()
		for count := 1; count <= 3*peers; count++ {
			for _, fp := range placementFPs {
				for _, task := range plan(fp, count) {
					seen := make(map[int]bool)
					for a := 0; a < peers; a++ {
						p := c.peerFor(task, a)
						if got := sortedV[cv.peerFor(task, a)]; got != sorted[p] {
							t.Fatalf("P=%d C=%d fp=%x task %d attempt %d: peer %s, %s under a permuted peer list",
								peers, count, fp, task.Index, a, sorted[p], got)
						}
						seen[p] = true
					}
					if len(seen) != peers {
						t.Fatalf("P=%d C=%d fp=%x task %d: %d attempts visit %d distinct peers",
							peers, count, fp, task.Index, peers, len(seen))
					}
				}
			}
		}
	}
	for _, bad := range []ClientConfig{
		{},
		{Peers: []string{"http://peer0:1"}, Retries: -1},
		{Peers: []string{"http://peer0:1"}, Backoff: -time.Millisecond},
		{Peers: []string{"http://peer0:1"}, Shards: -1},
	} {
		if _, err := NewClient(bad); err == nil {
			t.Errorf("NewClient(%+v) succeeded, want error", bad)
		}
	}
}

// TestRingSpreadsTasks pins the per-plan spread: every peer homes ⌊C/P⌋
// or ⌈C/P⌉ of a plan's C tasks.
func TestRingSpreadsTasks(t *testing.T) {
	for peers := 2; peers <= 7; peers++ {
		urls, c, _ := placementFixtures(t, peers)
		sorted := c.Peers()
		for count := 1; count <= 3*peers; count++ {
			for _, fp := range placementFPs {
				homes := make(map[string]int)
				for _, task := range plan(fp, count) {
					homes[sorted[c.peerFor(task, 0)]]++
				}
				lo, hi := count/peers, (count+peers-1)/peers
				for _, u := range urls {
					if n := homes[u]; n < lo || n > hi {
						t.Fatalf("P=%d C=%d fp=%x: peer %s homes %d tasks, want %d..%d (%v)",
							peers, count, fp, u, n, lo, hi, homes)
					}
				}
			}
		}
	}
}

// TestCoordinatorEquivalence pins the gather's determinism property: a
// scatter over two stub HTTP peers is byte-identical to the single-box
// mine for every shard count, option set and database tried, with equal
// examined and pruned counts and the single-box candidates and depth.
func TestCoordinatorEquivalence(t *testing.T) {
	optSets := []core.Options{
		{Per: 4, MinPS: 2, MinRec: 1},
		{Per: 4, MinPS: 2, MinRec: 1, Parallelism: 3},
		{Per: 6, MinPS: 3, MinRec: 2},
		{Per: 4, MinPS: 2, MinRec: 1, MaxLen: 2},
	}
	for seed := int64(1); seed <= 3; seed++ {
		db := testDB(seed, 12, 60, 0.35)
		peers := []string{newStubPeer(t, db).srv.URL, newStubPeer(t, db).srv.URL}
		for oi, o := range optSets {
			o.CollectStats = true
			want, err := core.MineContext(context.Background(), db, o)
			if err != nil {
				t.Fatalf("seed %d opts %d: single-box: %v", seed, oi, err)
			}
			for _, count := range []int{1, 2, 3, 7} {
				client, err := NewClient(ClientConfig{Peers: peers, Shards: count})
				if err != nil {
					t.Fatal(err)
				}
				got, err := client.Mine(context.Background(), db, o)
				if err != nil {
					t.Fatalf("seed %d opts %d shards %d: %v", seed, oi, count, err)
				}
				if !got.Equal(want) {
					t.Errorf("seed %d opts %d shards %d: scatter diverged from single-box (%d vs %d patterns)",
						seed, oi, count, len(got.Patterns), len(want.Patterns))
				}
				gs, ws := got.Stats, want.Stats
				if gs.PatternsExamined != ws.PatternsExamined || gs.PatternsPruned != ws.PatternsPruned ||
					gs.CandidateItems != ws.CandidateItems || gs.MaxDepth != ws.MaxDepth {
					t.Errorf("seed %d opts %d shards %d: stats %+v, single-box %+v", seed, oi, count, gs, ws)
				}
			}
		}
	}
}

// TestCoordinatorFailFast: a task that fails on every peer fails the
// scatter, and the error names the root cause rather than the
// cancellations it induced in the other tasks.
func TestCoordinatorFailFast(t *testing.T) {
	db := testDB(9, 8, 40, 0.4)
	var peers []string
	for i := 0; i < 2; i++ {
		p := newStubPeer(t, db)
		p.failShards = map[int]bool{2: true}
		peers = append(peers, p.srv.URL)
	}
	client, err := NewClient(ClientConfig{Peers: peers, Shards: 4, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Mine(context.Background(), db, core.Options{Per: 4, MinPS: 2, MinRec: 1})
	if err == nil {
		t.Fatal("want error under fail-fast")
	}
	if want := "injected failure on shard 2"; !strings.Contains(err.Error(), want) {
		t.Errorf("error lost the root cause: %v", err)
	}
}

func TestCoordinatorCancelled(t *testing.T) {
	db := testDB(5, 10, 50, 0.4)
	peer := newStubPeer(t, db)
	client, err := NewClient(ClientConfig{Peers: []string{peer.srv.URL}, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = client.Mine(ctx, db, core.Options{Per: 4, MinPS: 2, MinRec: 1})
	if err == nil {
		t.Fatal("want error for pre-cancelled context")
	}
	var cerr *core.CancelError
	if !errors.As(err, &cerr) {
		t.Errorf("want *core.CancelError, got %T: %v", err, err)
	}
}

// TestDefaultShardsPerDistinctPeer: Shards 0 plans one task per distinct
// peer, so one peer listed twice (once with a trailing slash) gets one
// task, not two.
func TestDefaultShardsPerDistinctPeer(t *testing.T) {
	db := testDB(7, 8, 40, 0.4)
	peer := newStubPeer(t, db)
	client, err := NewClient(ClientConfig{Peers: []string{peer.srv.URL, peer.srv.URL + "/"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := client.Shards(); n != 1 {
		t.Errorf("Shards() = %d, want 1", n)
	}
	if _, err := client.Mine(context.Background(), db, core.Options{Per: 4, MinPS: 2, MinRec: 1}); err != nil {
		t.Fatal(err)
	}
	if n := peer.requests.Load(); n != 1 {
		t.Errorf("peer served %d shard requests, want 1", n)
	}
}
