package main

import "math"

// perLayerUnits is every per-layer metric of BENCHMARK.json with its unit.
// A traced run reports each one; a layer the workload does not reach
// reads 0.
var perLayerUnits = map[string]string{
	"tsdb.parse_ms": "ms", "tsdb.parse_mb_per_s": "MB/s", "tsdb.input_bytes": "count",
	"core.mining_ms": "ms", "core.scan_ms": "ms", "core.tree_build_ms": "ms", "core.mine_ms": "ms",
	"core.ts_merge_ms": "ms", "core.mine_other_ms": "ms", "core.finalize_ms": "ms",
	"core.ts_merges": "count", "core.erec_prunes": "count", "core.recurrence_evals": "count",
	"core.tree_nodes": "count", "core.candidate_items": "count", "core.patterns": "count",
	"core.alloc_mb":  "MB",
	"api.convert_ms": "ms", "api.encode_ms": "ms", "api.response_bytes": "count",
	"serve.handler_ms": "ms", "serve.wire_ms": "ms", "serve.queue_wait_ms": "ms", "serve.upload_other_ms": "ms",
	"serve.cache_hit_ratio": "ratio", "serve.cache_lookups": "count", "serve.coalesced": "count",
	"serve.shed": "count", "serve.errors": "count",
	"shard.scatter_ms": "ms", "shard.peer_mine_ms": "ms", "shard.task_skew": "ratio", "shard.gather_ms": "ms",
	"shard.retries": "count", "shard.hedges": "count", "shard.failures": "count",
	"obs.trace_overhead_pct": "%",
	"unattributed_ms":        "ms", "op_ms_mean": "ms",
	"batch_pass_s": "s", "serve_rps": "1/s",
	"mine_cold_ms_p50": "ms", "mine_cold_ms_p90": "ms", "mine_cached_ms_p50": "ms", "mine_cached_ms_p90": "ms",
	"upload_ms_p50": "ms", "shard_mine_ms_p50": "ms",
}

// perLayerMetrics merges a run's layer metrics and workload figures into
// the full per-layer set: 0 for a layer the workload does not reach, and
// for a p90 over fewer than minP90Samples samples.
func perLayerMetrics(out outcome) map[string]metric {
	m := map[string]metric{}
	for k, unit := range perLayerUnits {
		m[k] = metric{0, unit}
	}
	for _, src := range []map[string]metric{out.layers, out.e2e} {
		for k, v := range src {
			if _, known := perLayerUnits[k]; known && !math.IsNaN(v.Value) {
				m[k] = v
			}
		}
	}
	return m
}
