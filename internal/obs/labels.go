package obs

import (
	"context"
	"runtime/pprof"
)

// pprof label attribution. A CPU profile (rpserved's /debug/pprof/profile,
// or any runtime/pprof capture) covers the whole process; these helpers
// make it attributable to workloads by tagging the mining goroutines with
// {request_id, dataset_fp, phase} pprof labels. Labels ride the context and
// are inherited by every goroutine the labeled region spawns, so the serve
// layer tags a request once and the parallel miner's workers tag only the
// phase.
//
// The label taxonomy is deliberately tiny (three keys, bounded value sets
// per capture window) because every distinct label set becomes a sample
//-aggregation bucket in the profile: request_id identifies one journal row,
// dataset_fp one registered database, phase one obs.Phase name.

// Label keys attached to mining goroutines. Exported so tests and tools
// filter on the same strings the serve layer writes (`go tool pprof
// -tagfocus request_id=...`).
const (
	LabelRequestID = "request_id"
	LabelDatasetFP = "dataset_fp"
	LabelPhase     = "phase"
)

// WithMineLabels returns ctx carrying pprof labels identifying one mining
// request. The labels take effect for goroutines that run under DoPhase (or
// any pprof.Do) with the returned context; empty values are omitted so an
// unlabeled caller costs no profile cardinality.
func WithMineLabels(ctx context.Context, requestID, datasetFP string) context.Context {
	kv := make([]string, 0, 4)
	if requestID != "" {
		kv = append(kv, LabelRequestID, requestID)
	}
	if datasetFP != "" {
		kv = append(kv, LabelDatasetFP, datasetFP)
	}
	if len(kv) == 0 {
		return ctx
	}
	return pprof.WithLabels(ctx, pprof.Labels(kv...))
}

// DoPhase runs fn with the context's pprof labels plus phase=p applied to
// the current goroutine, so CPU samples taken while fn runs are attributed
// to the phase (and to whatever request labels the context already
// carries). Child goroutines started inside fn inherit the labels.
func DoPhase(ctx context.Context, p Phase, fn func(ctx context.Context)) {
	pprof.Do(ctx, pprof.Labels(LabelPhase, p.String()), fn)
}
