// Package shard is the scatter-gather layer of the mining stack: it
// splits one mine into per-item-group shard tasks, runs them on remote
// rpserved peers, and merges the shard results into output byte-identical
// to a single-box mine.
//
// The decomposition is RP-growth's own: each top-level suffix item's
// conditional subtree is mined independently, so a shard task owns the
// suffix items whose RP-list rank falls in its residue class
// (core.ShardSpec) and the tasks partition the search space exactly. The
// in-process worker pool (core.mineRanks) uses the same seam within one
// process; this package is only the cross-process half.
//
//   - plan: one mine → ClientConfig.Shards tasks, a pure function of the
//     database fingerprint and the shard count, so every participant
//     derives the same plan independently.
//   - Client.Mine: POSTs each task to a peer's /v1/shard/mine, placing a
//     plan's tasks on consecutive peers, with per-attempt timeouts and
//     bounded retries with backoff, one request per attempt; then merges
//     the partials with core.Result.Merge and canonicalizes. Canonical
//     order is a total order on unique item sets and the tasks partition
//     the pattern set, so the merged output is byte-identical to
//     core.MineContext whatever the shard count or completion order.
//
// The scatter fails fast: the first shard task that fails after its
// retries cancels the rest, and the mine returns that error rather than a
// result missing some suffix items.
package shard

// task is one shard of a planned mine: mine the suffix items whose RP-list
// rank r has r mod Count == Index, over the database whose content
// fingerprint is FP.
type task struct {
	Index int
	Count int
	// FP pins the database content: a peer must refuse to mine a
	// database with a different fingerprint, since shards of one mine
	// must agree on the bytes, not just on a name.
	FP uint64
}

// plan splits one mine over the fingerprinted database into count tasks;
// count is positive (NewClient resolves ClientConfig.Shards to at least 1).
func plan(fp uint64, count int) []task {
	tasks := make([]task, count)
	for i := range tasks {
		tasks[i] = task{Index: i, Count: count, FP: fp}
	}
	return tasks
}
