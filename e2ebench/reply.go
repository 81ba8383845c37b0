package main

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
)

// mineReply is the part of an api.MineResponse the output check and the
// layer split read.
type mineReply struct {
	Count     int             `json:"count"`
	Cached    bool            `json:"cached"`
	Partial   bool            `json:"partial"`
	ElapsedMS float64         `json:"elapsedMS"`
	MiningMS  float64         `json:"miningMS"`
	Patterns  json.RawMessage `json:"patterns"`
	Stats     *core.MineStats `json:"stats"`
}

// checkMineReply verifies a mine reply's bytes against the reference.
func checkMineReply(body []byte, want digest, count int) error {
	var r mineReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	return r.check(want, count)
}

// check requires a complete (not partial) result whose count and pattern
// list, once compacted, equal the reference's.
func (r *mineReply) check(want digest, count int) error {
	if r.Partial {
		return errors.New("partial result")
	}
	if r.Count != count {
		return fmt.Errorf("count %d, reference %d", r.Count, count)
	}
	got, err := patternsDigest(r.Patterns)
	if err != nil {
		return fmt.Errorf("patterns: %w", err)
	}
	if got != want {
		return fmt.Errorf("patterns digest %s, reference %s", got, want)
	}
	return nil
}

// passLayers is one traced pass's per-layer time (ns) and exact counts.
type passLayers struct {
	ParseNS, ScanNS, TreeBuildNS, MineNS, MergeNS, FinalizeNS, MineCallNS, ConvertNS, EncodeNS int64

	Counts     map[string]int64
	AllocBytes int64
}

// add folds one cell's outcome into the pass.
func (p *passLayers) add(c *batchCell, o cellOut) {
	if p.Counts == nil {
		p.Counts = map[string]int64{}
	}
	p.ParseNS += o.parse
	p.MineCallNS += o.mine
	p.ConvertNS += o.convert
	p.EncodeNS += o.encode
	for _, s := range o.phases.Phases {
		switch s.Phase {
		case obs.PhaseScan.String():
			p.ScanNS += s.Nanos
		case obs.PhaseTreeBuild.String():
			p.TreeBuildNS += s.Nanos
		case obs.PhaseMine.String():
			p.MineNS += s.Nanos
		case obs.PhaseFinalize.String():
			p.FinalizeNS += s.Nanos
		case obs.PhaseMerge.String():
			p.MergeNS += s.Nanos
			p.Counts["core.ts_merges"] += s.Count
		case obs.PhasePrune.String():
			p.Counts["core.erec_prunes"] += s.Count
		}
	}
	p.Counts["core.recurrence_evals"] += int64(o.stats.PatternsExamined)
	p.Counts["core.tree_nodes"] += int64(o.stats.TreeNodes)
	p.Counts["core.candidate_items"] += int64(o.stats.CandidateItems)
	p.Counts["core.patterns_pruned_stat"] += int64(o.stats.PatternsPruned)
	p.Counts["core.patterns"] += int64(c.Patterns)
	p.Counts["api.response_bytes"] += int64(o.responseBytes)
	p.Counts["tsdb.input_bytes"] += int64(len(c.text))
	p.AllocBytes += int64(o.allocBytes)
}
