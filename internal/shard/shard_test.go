package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

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
	tasks, err := Plan(0xdeadbeef, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("planned %d tasks, want 3", len(tasks))
	}
	for i, task := range tasks {
		if task.Index != i || task.Count != 3 || task.FP != 0xdeadbeef {
			t.Errorf("task %d = %+v", i, task)
		}
	}
	if _, err := Plan(1, 0); err == nil {
		t.Error("want error for zero shard count")
	}
	if _, err := Plan(1, -2); err == nil {
		t.Error("want error for negative shard count")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
	}{{"", FailFast}, {"fail-fast", FailFast}, {"best-effort", BestEffort}} {
		p, err := ParsePolicy(c.in)
		if err != nil || p != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", c.in, p, err)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Error("want error for unknown policy")
	}
	if FailFast.String() != "fail-fast" || BestEffort.String() != "best-effort" {
		t.Error("policy String/Parse forms disagree")
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
				for _, task := range mustPlan(t, fp, count) {
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
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Error("want error for empty peer set")
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
				for _, task := range mustPlan(t, fp, count) {
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

func mustPlan(t *testing.T, fp uint64, count int) []Task {
	t.Helper()
	tasks, err := Plan(fp, count)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// TestCoordinatorEquivalence pins the reducer determinism property: the
// gathered scatter is byte-identical to the single-box mine for every
// shard count, option set, and database tried.
func TestCoordinatorEquivalence(t *testing.T) {
	optSets := []core.Options{
		{Per: 4, MinPS: 2, MinRec: 1},
		{Per: 4, MinPS: 2, MinRec: 1, Parallelism: 3, CollectStats: true},
		{Per: 6, MinPS: 3, MinRec: 2, ItemOrder: core.Lexicographic},
		{Per: 4, MinPS: 2, MinRec: 1, MaxLen: 2, DisableErecPruning: true},
	}
	for seed := int64(1); seed <= 3; seed++ {
		db := testDB(seed, 12, 60, 0.35)
		for oi, o := range optSets {
			want, err := core.MineContext(context.Background(), db, o)
			if err != nil {
				t.Fatalf("seed %d opts %d: single-box: %v", seed, oi, err)
			}
			for _, count := range []int{1, 2, 3, 7} {
				c := &Coordinator{Count: count, Exec: Local{}}
				got, err := c.Mine(context.Background(), db, o)
				if err != nil {
					t.Fatalf("seed %d opts %d shards %d: %v", seed, oi, count, err)
				}
				if got.Partial || got.FailedShards != nil {
					t.Fatalf("seed %d opts %d shards %d: unexpected partial marker", seed, oi, count)
				}
				if !got.Result.Equal(want) {
					t.Errorf("seed %d opts %d shards %d: scatter diverged from single-box (%d vs %d patterns)",
						seed, oi, count, len(got.Patterns), len(want.Patterns))
				}
			}
		}
	}
}

// failExec fails the tasks whose index is in fail, delegating the rest.
type failExec struct {
	inner Executor
	fail  map[int]bool
}

func (f failExec) Execute(ctx context.Context, db *tsdb.DB, o core.Options, task Task) (*Partial, error) {
	if f.fail[task.Index] {
		return nil, fmt.Errorf("injected failure on shard %d", task.Index)
	}
	return f.inner.Execute(ctx, db, o, task)
}

func TestCoordinatorBestEffortPartial(t *testing.T) {
	db := testDB(7, 10, 50, 0.4)
	o := core.Options{Per: 4, MinPS: 2, MinRec: 1}
	c := &Coordinator{
		Count:  3,
		Exec:   failExec{inner: Local{}, fail: map[int]bool{1: true}},
		Policy: BestEffort,
	}
	got, err := c.Mine(context.Background(), db, o)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Partial || len(got.FailedShards) != 1 || got.FailedShards[0] != 1 {
		t.Fatalf("partial marker wrong: partial=%v failed=%v", got.Partial, got.FailedShards)
	}
	// The surviving shards' merge is deterministic: re-running yields the
	// same patterns, and they are exactly the survivors' single-shard sets.
	again, err := c.Mine(context.Background(), db, o)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Equal(again.Result) {
		t.Error("best-effort survivors not deterministic across runs")
	}
	var parts []*Partial
	for _, idx := range []int{0, 2} {
		p, err := Local{}.Execute(context.Background(), db, o, Task{Index: idx, Count: 3, FP: db.Fingerprint()})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if want := Reduce(parts); !got.Result.Equal(want) {
		t.Errorf("partial result is not the survivors' merge (%d vs %d patterns)",
			len(got.Patterns), len(want.Patterns))
	}
	// A full mine must differ (shard 1 owned at least one suffix item here).
	full, err := core.MineContext(context.Background(), db, o)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Equal(full) {
		t.Error("partial result unexpectedly equals the full mine; failure injection inert")
	}
}

func TestCoordinatorFailFast(t *testing.T) {
	db := testDB(9, 8, 40, 0.4)
	o := core.Options{Per: 4, MinPS: 2, MinRec: 1}
	c := &Coordinator{Count: 4, Exec: failExec{inner: Local{}, fail: map[int]bool{2: true}}}
	_, err := c.Mine(context.Background(), db, o)
	if err == nil {
		t.Fatal("want error under fail-fast")
	}
	if want := "injected failure on shard 2"; !strings.Contains(err.Error(), want) {
		t.Errorf("error lost the root cause: %v", err)
	}
}

func TestCoordinatorAllShardsFailedBestEffort(t *testing.T) {
	db := testDB(3, 6, 30, 0.5)
	c := &Coordinator{
		Count:  2,
		Exec:   failExec{inner: Local{}, fail: map[int]bool{0: true, 1: true}},
		Policy: BestEffort,
	}
	if _, err := c.Mine(context.Background(), db, core.Options{Per: 4, MinPS: 2, MinRec: 1}); err == nil {
		t.Fatal("want error when every shard fails, even best-effort")
	}
}

func TestCoordinatorCancelled(t *testing.T) {
	db := testDB(5, 10, 50, 0.4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Coordinator{Count: 3, Exec: Local{}}
	_, err := c.Mine(ctx, db, core.Options{Per: 4, MinPS: 2, MinRec: 1})
	if err == nil {
		t.Fatal("want error for pre-cancelled context")
	}
	var cerr *core.CancelError
	if !errors.As(err, &cerr) {
		t.Errorf("want *core.CancelError, got %T: %v", err, err)
	}
}

func TestLocalRejectsWrongFingerprint(t *testing.T) {
	db := testDB(2, 6, 30, 0.5)
	_, err := Local{}.Execute(context.Background(), db, core.Options{Per: 4, MinPS: 2, MinRec: 1},
		Task{Index: 0, Count: 1, FP: db.Fingerprint() + 1})
	if err == nil {
		t.Fatal("want fingerprint mismatch error")
	}
}

func TestReduceSkipsNil(t *testing.T) {
	db := testDB(4, 8, 40, 0.4)
	o := core.Options{Per: 4, MinPS: 2, MinRec: 1, CollectStats: true}
	p0, err := Local{}.Execute(context.Background(), db, o, Task{Index: 0, Count: 2, FP: db.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	res := Reduce([]*Partial{p0, nil})
	if len(res.Patterns) != len(p0.Patterns) {
		t.Errorf("Reduce with nil partial has %d patterns, want %d", len(res.Patterns), len(p0.Patterns))
	}
	if res.Stats.PatternsExamined != p0.Stats.PatternsExamined {
		t.Errorf("stats merge wrong: %+v", res.Stats)
	}
}
