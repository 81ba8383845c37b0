package main

import (
	"net/http"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/shard"
)

// serveCounters is the part of a /v1/stats payload the traced runs read.
type serveCounters struct {
	Metrics struct {
		CacheHits   int64 `json:"cacheHits"`
		CacheMisses int64 `json:"cacheMisses"`
		Shed        int64 `json:"shed"`
		Cancelled   int64 `json:"cancelled"`
		Timeouts    int64 `json:"timeouts"`
		Errors      int64 `json:"errors"`
		Mined       int64 `json:"mined"`
	} `json:"metrics"`
	ShardPeers []shard.PeerStats `json:"shardPeers"`
}

// serveSnapshot is what a traced run reads from a server before and after
// its loop: the /metrics samples and the /v1/stats counters.
type serveSnapshot struct {
	prom  map[string]float64
	stats serveCounters
}

func snapshotServe(hc *http.Client, url string) (serveSnapshot, error) {
	var s serveSnapshot
	var err error
	if s.prom, err = promSamples(hc, url); err != nil {
		return s, err
	}
	return s, getJSON(hc, url+"/v1/stats", &s.stats)
}

// journalEntry is the part of a /debug/requests entry the traced runs read.
type journalEntry struct {
	FP       string          `json:"fp"`
	Opts     string          `json:"opts"`
	Outcome  string          `json:"outcome"`
	QueueMS  float64         `json:"queueMS"`
	Historic bool            `json:"historic"`
	Phases   []obs.PhaseStat `json:"phases"`
}

// readJournal fetches a server's journal of recent requests.
func readJournal(hc *http.Client, url string) ([]journalEntry, error) {
	var j struct {
		Recent []journalEntry `json:"recent"`
	}
	err := getJSON(hc, url+"/debug/requests?format=json", &j)
	return j.Recent, err
}

// workCounts adds up the trace's ts-merge and erec-prune counts of one
// journalled run per key kind (runs of one kind do identical work) and
// returns how many kinds it found; kind returns "" for runs to skip.
func workCounts(entries []journalEntry, kind func(journalEntry) string) (merges, prunes float64, kinds int) {
	seen := map[string]bool{}
	for _, e := range entries {
		k := kind(e)
		if k == "" || seen[k] {
			continue
		}
		seen[k] = true
		for _, p := range e.Phases {
			switch p.Phase {
			case obs.PhaseMerge.String():
				merges += float64(p.Count)
			case obs.PhasePrune.String():
				prunes += float64(p.Count)
			}
		}
	}
	return merges, prunes, len(seen)
}

// addWork reports the work counts of one op: the MineStats of one reply
// per key kind, averaged over the kinds, and the reference pattern count.
func addWork(m map[string]metric, stats map[string]core.MineStats, patterns float64) {
	var rec, nodes, cands float64
	for _, s := range stats {
		rec += float64(s.PatternsExamined)
		nodes += float64(s.TreeNodes)
		cands += float64(s.CandidateItems)
	}
	n := float64(max(1, len(stats)))
	m["core.recurrence_evals"] = metric{rec / n, "count"}
	m["core.tree_nodes"] = metric{nodes / n, "count"}
	m["core.candidate_items"] = metric{cands / n, "count"}
	m["core.patterns"] = metric{patterns, "count"}
}
