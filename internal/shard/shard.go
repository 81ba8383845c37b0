// Package shard is the scatter-gather coordination layer of the mining
// stack: it splits one mine into per-item-group shard tasks, executes them
// on local goroutine pools or remote rpserved peers, and merges the shard
// results into output byte-identical to a single-box mine.
//
// The decomposition is RP-growth's own: each top-level suffix item's
// conditional subtree is mined independently, so a shard task owns the
// suffix items whose RP-list rank falls in its residue class
// (core.ShardSpec) and the tasks partition the search space exactly. The
// three pieces:
//
//   - Planner (Plan): one mine → Count tasks, a pure function of the
//     database fingerprint and the shard count, so every participant
//     derives the same plan independently.
//   - Executors: Local mines a task in-process through
//     core.MineShardContext; Client POSTs it to a remote rpserved peer's
//     /v1/shard/mine, with consistent-hash routing, per-task timeouts,
//     bounded retries with backoff, one request per attempt.
//   - Reducer (Reduce): concatenates shard pattern sets and canonicalizes.
//     Canonical order is a total order on unique item sets and the tasks
//     partition the pattern set, so the merged output is byte-identical to
//     core.MineContext whatever the shard count or completion order — the
//     same argument as the parallel miner's rank-ordered merge.
//
// Coordinator ties them together with a partial-failure policy: FailFast
// cancels the scatter on the first shard error, BestEffort returns the
// surviving shards' patterns marked Partial (still deterministic for a
// given surviving set).
package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"github.com/recurpat/rp/internal/core"
)

// Task is one shard of a planned mine: mine the suffix items whose RP-list
// rank r has r mod Count == Index, over the database whose content
// fingerprint is FP.
type Task struct {
	Index int
	Count int
	// FP pins the database content: executors must refuse to mine a
	// database with a different fingerprint, since shards of one mine
	// must agree on the bytes, not just on a name.
	FP uint64
}

// Spec is the task's core-level shard restriction.
func (t Task) Spec() core.ShardSpec { return core.ShardSpec{Index: t.Index, Count: t.Count} }

// key is the task's consistent-hash routing key: finalized FNV-1a over
// the database fingerprint and the shard index, so one dataset's tasks
// spread over the ring rather than dogpiling the peer that owns the
// fingerprint (see mix64 for why the finalizer matters).
func (t Task) key() uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], t.FP)
	_, _ = h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], uint64(t.Index))
	_, _ = h.Write(b[:])
	return mix64(h.Sum64())
}

// Plan splits one mine over the fingerprinted database into count tasks.
// count must be positive.
func Plan(fp uint64, count int) ([]Task, error) {
	if count <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", count)
	}
	tasks := make([]Task, count)
	for i := range tasks {
		tasks[i] = Task{Index: i, Count: count, FP: fp}
	}
	return tasks, nil
}

// Policy selects how a scatter handles shard failures.
type Policy int

const (
	// FailFast cancels the remaining shards on the first failure and
	// reports the error; no partial results are returned.
	FailFast Policy = iota
	// BestEffort waits for every shard and returns the survivors' merged
	// patterns marked partial, with the failed shard indexes listed. All
	// shards failing is still an error.
	BestEffort
)

// String returns the policy's flag form.
func (p Policy) String() string {
	if p == BestEffort {
		return "best-effort"
	}
	return "fail-fast"
}

// ParsePolicy parses the flag form of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fail-fast":
		return FailFast, nil
	case "best-effort":
		return BestEffort, nil
	default:
		return 0, fmt.Errorf("shard: unknown partial-failure policy %q (want fail-fast or best-effort)", s)
	}
}
