package main

import (
	"fmt"
	"io"
	"maps"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
)

// serveLayers splits serve-mix's request time by layer from the reply
// fields, the /metrics and /v1/stats deltas over the loop and the journal.
func serveLayers(w io.Writer, mx *serveMix, before serveSnapshot, cl map[string]*classStats, clients []*serveClient, opMS []float64) (map[string]metric, error) {
	after, err := snapshotServe(mx.hc, mx.url)
	if err != nil {
		return nil, err
	}
	entries, err := readJournal(mx.hc, mx.url)
	if err != nil {
		return nil, err
	}
	fpBase := map[string]string{}
	stats := map[string]core.MineStats{}
	for _, c := range clients {
		maps.Copy(fpBase, c.fpBase)
		maps.Copy(stats, c.stats)
	}
	// Executed cold mines in the journal, one kind per base and options.
	kind := func(e journalEntry) string {
		if e.Outcome != "ok" || e.Historic || fpBase[e.FP] == "" {
			return ""
		}
		return fpBase[e.FP] + "|" + e.Opts
	}
	var queue []float64
	for _, e := range entries {
		if kind(e) != "" {
			queue = append(queue, e.QueueMS)
		}
	}
	up, cold, cached := cl[classUpload], cl[classCold], cl[classCached]
	n := float64(len(opMS))
	phase := func(p obs.Phase) float64 {
		k := `rpserved_phase_seconds_sum{phase="` + p.String() + `"}`
		return (after.prom[k] - before.prom[k]) * 1e3 / n
	}
	mineLat := sum(cold.latMS) + sum(cached.latMS)
	mineElapsed := cold.elapsedMS + cached.elapsedMS
	rows := []layerRow{
		{"tsdb.parse_ms", up.ingestMS / n, false, "upload reply ingestMS"},
		{"core.mining_ms", cold.miningMS / n, false, "cold-mine reply miningMS"},
		{"core.scan_ms", phase(obs.PhaseScan), true, "/metrics phase sums"},
		{"core.tree_build_ms", phase(obs.PhaseTreeBuild), true, "/metrics phase sums"},
		{"core.mine_ms", phase(obs.PhaseMine), true, "/metrics phase sums, added over the 2 pool workers"},
		{"core.ts_merge_ms", phase(obs.PhaseMerge), true, "/metrics phase sums, added over the 2 pool workers"},
		{"core.mine_other_ms", phase(obs.PhaseMine) - phase(obs.PhaseMerge), true, "mine - ts-merge"},
		{"core.finalize_ms", phase(obs.PhaseFinalize), true, "/metrics phase sums"},
		{"serve.handler_ms", (mineElapsed - cold.miningMS) / n, false, "reply elapsedMS - miningMS: decode, lookup, cache, admission, convert"},
		{"serve.queue_wait_ms", mean(queue) * float64(len(cold.latMS)) / n, true, "admission wait of executed mines, journal sample"},
		{"serve.wire_ms", (mineLat - mineElapsed) / n, false, "latency - elapsedMS: encode, transfer, client read"},
		{"serve.upload_other_ms", (sum(up.latMS) - up.ingestMS) / n, false, "upload latency - ingestMS: spill, fingerprint, register, wire"},
	}
	m := rowsMetrics(rows)
	m["unattributed_ms"] = metric{layerTable(w, "serve-mix, per request", mean(opMS), rows), "ms"}
	m["op_ms_mean"] = metric{mean(opMS), "ms"}
	m["tsdb.input_bytes"] = metric{float64(up.sent) / float64(len(up.latMS)), "count"}
	m["tsdb.parse_mb_per_s"] = metric{float64(up.sent) / 1e6 / (up.ingestMS / 1e3), "MB/s"}
	m["api.response_bytes"] = metric{float64(cold.received+cached.received) / float64(len(cold.latMS)+len(cached.latMS)), "count"}

	b, a := before.stats.Metrics, after.stats.Metrics
	hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
	m["serve.cache_lookups"] = metric{hits + misses, "count"}
	m["serve.cache_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	// A miss that neither mined nor failed shared a leader's run.
	m["serve.coalesced"] = metric{misses - float64(a.Mined-b.Mined+a.Shed-b.Shed+a.Cancelled-b.Cancelled+a.Timeouts-b.Timeouts), "count"}
	m["serve.shed"] = metric{float64(a.Shed - b.Shed), "count"}
	m["serve.errors"] = metric{float64(a.Errors - b.Errors), "count"}

	merges, prunes, kinds := workCounts(entries, kind)
	if kinds > 0 {
		m["core.ts_merges"] = metric{merges / float64(kinds), "count"}
		m["core.erec_prunes"] = metric{prunes / float64(kinds), "count"}
	}
	all := len(mx.bases) * len(coldThresholds)
	fmt.Fprintf(w, "journal: %d executed mines sampled; work counts from %d of %d cold key kinds\n", len(queue), kinds, all)
	var patterns float64
	for _, refs := range mx.refs {
		for _, r := range refs {
			patterns += float64(len(r.patterns))
		}
	}
	addWork(m, stats, patterns/float64(all))
	return m, nil
}
