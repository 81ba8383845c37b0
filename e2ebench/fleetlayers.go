package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"

	"github.com/recurpat/rp/internal/obs"
)

// fleetStats is the part of /v1/fleet/stats the traced run reads: the
// coordinator's per-peer scatter counters.
type fleetStats struct {
	Coordinator serveCounters `json:"coordinator"`
}

// maxLenOpt matches the maxLen field of a journalled options digest.
var maxLenOpt = regexp.MustCompile(`maxLen=\d+,`)

// fleetLayers splits a scatter's latency by layer from the replies, the
// coordinator's /v1/fleet/stats deltas and the journals.
func fleetLayers(w io.Writer, hc *http.Client, f fleet, before fleetStats, samples []fleetSample) (map[string]metric, error) {
	var after fleetStats
	if err := getJSON(hc, f.coordinator().url+"/v1/fleet/stats", &after); err != nil {
		return nil, err
	}
	b, a := before.Coordinator.ShardPeers, after.Coordinator.ShardPeers
	if len(a) != len(b) || len(a) == 0 {
		return nil, fmt.Errorf("fleet stats list %d peers before the loop and %d after", len(b), len(a))
	}
	var tasks, busiest, retries, hedges, failures float64
	phaseMS := map[string]float64{}
	for i := range a {
		t := float64(a[i].Success - b[i].Success)
		tasks += t
		busiest = max(busiest, t)
		retries += float64(a[i].Retries - b[i].Retries)
		hedges += float64(a[i].Hedges - b[i].Hedges)
		failures += float64(a[i].Failure - b[i].Failure)
		for p, sec := range a[i].PhaseSeconds {
			phaseMS[p] += (sec - b[i].PhaseSeconds[p]) * 1e3
		}
		fmt.Fprintf(w, "peer %s: %.0f shard tasks\n", a[i].URL, t)
	}
	if tasks == 0 || len(samples) == 0 {
		return nil, errors.New("no shard task completed")
	}
	perTask := func(p obs.Phase) float64 { return phaseMS[p.String()] / tasks }
	peerMine := perTask(obs.PhaseScan) + perTask(obs.PhaseTreeBuild) + perTask(obs.PhaseMine) + perTask(obs.PhaseFinalize)
	var lat, elapsed, mining, bytes float64
	for _, s := range samples {
		lat += s.latMS
		elapsed += s.elapsedMS
		mining += s.miningMS
		bytes += float64(s.bytes)
	}
	n := float64(len(samples))
	rows := []layerRow{
		{"serve.handler_ms", (elapsed - mining) / n, false, "coordinator reply elapsedMS - miningMS"},
		{"serve.wire_ms", (lat - elapsed) / n, false, "latency - elapsedMS: encode, transfer, client read"},
		{"shard.peer_mine_ms", peerMine, false, "peer-reported mining per shard task (tasks run in parallel)"},
		{"core.scan_ms", perTask(obs.PhaseScan), true, "per shard task, /v1/fleet/stats"},
		{"core.tree_build_ms", perTask(obs.PhaseTreeBuild), true, "per shard task"},
		{"core.mine_ms", perTask(obs.PhaseMine), true, "per shard task"},
		{"core.ts_merge_ms", perTask(obs.PhaseMerge), true, "per shard task"},
		{"core.mine_other_ms", perTask(obs.PhaseMine) - perTask(obs.PhaseMerge), true, "mine - ts-merge"},
		{"core.finalize_ms", perTask(obs.PhaseFinalize), true, "per shard task"},
	}
	m := rowsMetrics(rows)
	m["unattributed_ms"] = metric{layerTable(w, "shard-fleet, per scatter", lat/n, rows), "ms"}
	fmt.Fprintln(w, "shard-fleet's unattributed time is the gather estimate: wire, routing, PatternsToCore, reduce, waiting on the slower shard")
	m["op_ms_mean"] = metric{lat / n, "ms"}
	m["core.mining_ms"] = metric{peerMine, "ms"}
	m["shard.scatter_ms"] = metric{mining / n, "ms"}
	m["shard.gather_ms"] = metric{mining/n - peerMine, "ms"}
	m["shard.task_skew"] = metric{busiest / (tasks / float64(len(a))), "ratio"}
	m["shard.retries"] = metric{retries, "count"}
	m["shard.hedges"] = metric{hedges, "count"}
	m["shard.failures"] = metric{failures, "count"}
	m["api.response_bytes"] = metric{bytes / n, "count"}

	coord, err := readJournal(hc, f.coordinator().url)
	if err != nil {
		return nil, err
	}
	var queue []float64
	for _, e := range coord {
		if e.Outcome == "ok" {
			queue = append(queue, e.QueueMS)
		}
	}
	m["serve.queue_wait_ms"] = metric{mean(queue), "ms"}
	var peers []journalEntry
	for _, s := range f[:len(f)-1] {
		e, err := readJournal(hc, s.url)
		if err != nil {
			return nil, err
		}
		peers = append(peers, e...)
	}
	// One kind per (cell, shard): the options digest without its maxLen.
	merges, prunes, kinds := workCounts(peers, func(e journalEntry) string {
		if e.Outcome != "shard-ok" {
			return ""
		}
		return maxLenOpt.ReplaceAllString(e.Opts, "")
	})
	if scatters := float64(kinds) / fleetShards; scatters > 0 {
		m["core.ts_merges"] = metric{merges / scatters, "count"}
		m["core.erec_prunes"] = metric{prunes / scatters, "count"}
	}
	fmt.Fprintf(w, "journals: work counts from %d (cell, shard) kinds\n", kinds)
	return m, nil
}
