package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
)

// batchLayers turns the traced passes into the per-layer metrics and
// prints the layer table. Every traced pass must repeat the first one's
// counts exactly.
func batchLayers(w io.Writer, rep *batchReport) (map[string]metric, error) {
	if len(rep.Layers) == 0 || len(rep.PassMS) == 0 {
		return nil, errors.New("tracing needs an untraced and a traced pass")
	}
	var s passLayers
	for i, l := range rep.Layers {
		if !maps.Equal(l.Counts, rep.Layers[0].Counts) {
			return nil, fmt.Errorf("traced pass %d counted %v, pass 0 %v", i, l.Counts, rep.Layers[0].Counts)
		}
		s.ParseNS += l.ParseNS
		s.ScanNS += l.ScanNS
		s.TreeBuildNS += l.TreeBuildNS
		s.MineNS += l.MineNS
		s.MergeNS += l.MergeNS
		s.FinalizeNS += l.FinalizeNS
		s.MineCallNS += l.MineCallNS
		s.ConvertNS += l.ConvertNS
		s.EncodeNS += l.EncodeNS
		s.AllocBytes += l.AllocBytes
	}
	n := float64(len(rep.Layers))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	counts := rep.Layers[0].Counts
	rows := []layerRow{
		{"tsdb.parse_ms", ms(s.ParseNS), false, "tsdb.ReadBytes call"},
		{"core.scan_ms", ms(s.ScanNS), false, "obs.Trace phase scan"},
		{"core.tree_build_ms", ms(s.TreeBuildNS), false, "obs.Trace phase tree-build"},
		{"core.mine_ms", ms(s.MineNS), false, "obs.Trace phase mine"},
		{"core.ts_merge_ms", ms(s.MergeNS), true, "obs.Trace phase ts-merge"},
		{"core.mine_other_ms", ms(s.MineNS - s.MergeNS), true, "mine - ts-merge: recurrence, Erec, conditional trees, emit"},
		{"core.finalize_ms", ms(s.FinalizeNS), false, "obs.Trace phase finalize"},
		{"api.convert_ms", ms(s.ConvertNS), false, "api.PatternsFromCore call"},
		{"api.encode_ms", ms(s.EncodeNS), false, "json.Marshal of the api.MineResponse"},
	}
	opMS := mean(rep.TracedPassMS)
	m := rowsMetrics(rows)
	m["core.mining_ms"] = metric{ms(s.MineCallNS), "ms"}
	m["unattributed_ms"] = metric{layerTable(w, "batch-table7, per pass", opMS, rows), "ms"}
	m["op_ms_mean"] = metric{opMS, "ms"}
	m["tsdb.parse_mb_per_s"] = metric{float64(counts["tsdb.input_bytes"]) / 1e6 / (ms(s.ParseNS) / 1e3), "MB/s"}
	m["core.alloc_mb"] = metric{float64(s.AllocBytes) / 1e6 / n, "MB"}
	for k, v := range counts {
		if k != "core.patterns_pruned_stat" {
			m[k] = metric{float64(v), "count"}
		}
	}
	fmt.Fprintf(w, "MineStats.PatternsPruned per pass: %d; trace erec-prune count per pass: %d\n",
		counts["core.patterns_pruned_stat"], counts["core.erec_prunes"])
	m["obs.trace_overhead_pct"] = metric{100 * (median(rep.TracedPassMS)/median(rep.PassMS) - 1), "%"}
	return m, nil
}

// rowsMetrics reports every layer row as a metric in ms.
func rowsMetrics(rows []layerRow) map[string]metric {
	m := map[string]metric{}
	for _, r := range rows {
		m[r.name] = metric{r.ms, "ms"}
	}
	return m
}
