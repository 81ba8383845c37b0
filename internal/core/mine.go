package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// Mine discovers the complete set of recurring patterns in db under the
// thresholds in o using the RP-growth algorithm (paper Section 4): one scan
// builds the RP-list of candidate items, a second scan builds the RP-tree,
// and bottom-up pattern growth with Erec pruning enumerates the patterns.
//
// The result is canonically ordered (by pattern length, then item IDs).
// Mine is not cancellable; long-running callers should use MineContext.
func Mine(db *tsdb.DB, o Options) (*Result, error) {
	//rpvet:allow ctxflow — Mine is the documented non-cancellable compat wrapper; the root it mints is the API contract
	return MineContext(context.Background(), db, o)
}

// MineContext is Mine with cancellation: when ctx is cancelled (or its
// deadline passes), mining stops at the next subtree-task boundary — every
// worker observes ctx between top-level subtree tasks and between the ranks
// of its conditional trees — and a
// *CancelError wrapping ctx.Err() is returned instead of a result. With
// Options.CollectStats set, the CancelError carries the partial search
// statistics accumulated up to the stop.
//
// Contexts that can never fire (context.Background) add no per-task cost.
func MineContext(ctx context.Context, db *tsdb.DB, o Options) (*Result, error) {
	return mine(ctx, db, o, ShardSpec{Index: 0, Count: 1}, nil)
}

// mine is the one RP-growth pipeline behind MineContext, MineShardContext
// and MineFuncContext: validate, scan (the RP-list), tree-build (the
// RP-tree), mine the top-level ranks spec owns, and finalize. Every phase
// runs here exactly once, under its pprof phase label (plus whatever request
// labels ctx carries, see obs.WithMineLabels) and, when o.Trace is set,
// inside a span of that phase — so a CPU capture attributes every entry
// point's samples alike.
//
// emit is the sink: nil accumulates the patterns into the returned Result,
// which finalize canonicalizes; otherwise every pattern streams to emit in
// discovery order (returning false stops the run) and the Result carries
// only the stats.
//
// Every run mines through one loop, mineRanks: a pool of workers over the
// read-only initial tree, one worker when Parallelism ≤ 1 or a sink is set.
func mine(ctx context.Context, db *tsdb.DB, o Options, spec ShardSpec, emit func(Pattern) bool) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &CancelError{Err: err}
	}
	if err := checkTidSpace(int64(db.Len())); err != nil {
		return nil, err
	}
	defer o.Trace.StartTotal().End()
	res := &Result{}
	var list *RPList
	runPhase(ctx, o.Trace, obs.PhaseScan, func() { list = BuildRPList(db, o) })
	if o.CollectStats {
		res.Stats.CandidateItems = len(list.Candidates)
	}
	if len(list.Candidates) == 0 {
		return res, nil
	}
	if err := checkPathSpace(list); err != nil {
		return nil, err
	}
	var tree *rpTree
	runPhase(ctx, o.Trace, obs.PhaseTreeBuild, func() { tree = buildRPTree(db, list) })
	if o.CollectStats {
		// Every shard builds the full initial tree, so summing shard stats
		// overcounts TreeNodes by (Count-1) tree sizes; the reducer
		// documents this (conditional-tree nodes, the dominant term, are
		// counted exactly once since each shard only grows its own).
		res.Stats.TreeNodes += tree.nodes
	}
	// The mine phase is timed per subtree task (mineWorker), not as one
	// span; the label covers the pool's workers too, which inherit it.
	cancelled := false
	obs.DoPhase(ctx, obs.PhaseMine, func(ctx context.Context) {
		cancelled = mineRanks(ctx, tree, o, res, spec.ranks(len(tree.order)), emit)
	})
	if cancelled {
		cerr := &CancelError{Err: ctx.Err()}
		if o.CollectStats {
			cerr.Stats = res.Stats
		}
		return nil, cerr
	}
	if emit == nil {
		runPhase(ctx, o.Trace, obs.PhaseFinalize, res.Canonicalize)
	}
	return res, nil
}

// checkTidSpace refuses a database of n transactions when its transaction
// indices, which the RP-tree stores as int32, would overflow.
func checkTidSpace(n int64) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("core: |TDB| = %d transactions exceeds the RP-tree's int32 transaction-index limit of %d", n, math.MaxInt32)
	}
	return nil
}

// checkPathSpace refuses a database whose candidate projections, the
// RP-tree's rank paths, hold more items together than the tree's int32
// path offsets can address. Their length is the candidates' summed support.
func checkPathSpace(list *RPList) error {
	n := int64(0)
	for _, e := range list.Candidates {
		n += int64(e.Support)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("core: the candidate item projections hold %d items, past the RP-tree's int32 path-offset limit of %d", n, math.MaxInt32)
	}
	return nil
}

// runPhase runs fn as phase p of a mining run: under the phase's pprof
// label and, when tr is non-nil, inside one span of p.
func runPhase(ctx context.Context, tr *obs.Trace, p obs.Phase, fn func()) {
	obs.DoPhase(ctx, p, func(context.Context) {
		defer tr.Start(p).End()
		fn()
	})
}

// miner carries the mining context of one RP-growth run: the thresholds, the
// output sink, and the reusable memory of the hot path — the conditional
// tree arena (reset, not freed, between recursions) and the merge scratch.
// A miner is single-goroutine state; the parallel mode gives each worker its
// own and merges their results deterministically afterwards.
type miner struct {
	o         Options
	res       *Result            // stats sink, and the pattern sink unless fn is set
	fn        func(Pattern) bool // streaming sink (MineFunc); stops when false
	stop      bool               // set once fn returned false or ctx fired
	done      <-chan struct{}    // ctx.Done(); nil when not cancellable
	cancelled bool               // set once done fired (distinguishes fn stop)
	arena     nodeArena          // conditional-tree slab
	ms        mergeScratch
	stack     []tsdb.ItemID // the pattern being mined, one item per level

	// tr is the run's shared phase tracer (nil when untraced); lc batches
	// this miner's observations between flushes, which happen once per
	// top-level subtree task so the atomics stay out of the hot loops.
	tr *obs.Trace
	lc obs.Local
}

// newMiner builds a miner for o, wiring the tracer into the merge scratch
// (which times the conditional Erec check's tid-union folds) when a trace
// is attached.
func newMiner(o Options) *miner {
	m := &miner{o: o}
	if o.Trace != nil {
		m.tr = o.Trace
		m.ms.lc = &m.lc
	}
	return m
}

// mineTree is Algorithm 4 (RP-growth) on a conditional tree: process the
// tree's items bottom-up; for each item, read the suffix pattern's
// recurrence (Algorithm 5), folded when the tree was built, and recurse
// into the conditional tree. The subtree ranges already hold what Lemma 3's
// push-ups would gather, so nothing is pushed.
//
// Cancellation is observed once per rank — task granularity, so the check
// never runs inside the ts-list fold or tree-walk hot loops.
func (m *miner) mineTree(t *rpTree, suffix []tsdb.ItemID, depth int) {
	if m.o.CollectStats && depth > m.res.Stats.MaxDepth {
		m.res.Stats.MaxDepth = depth
	}
	for r := len(t.order) - 1; r >= 0 && !m.stop; r-- {
		if m.checkCancel() {
			return
		}
		m.mineRank(t, r, suffix, depth)
	}
}

// mineRank evaluates the pattern beta = suffix + order[r] and recurses into
// its conditional tree. beta is appended in place: suffix is a prefix of
// the miner's pattern stack, whose capacity covers every candidate item,
// so the patterns of one recursion share one array, each level writing
// its own slot, and emit copies what it keeps. The rank already passed the
// Erec candidate check on the very tid set it covers (the RP-list's, or
// the parent conditionalTree's for a conditional tree), so beta is never
// pruned here, and its support and interesting intervals are read from
// the rank, not recomputed. The conditional tree is carved from the
// miner's arena and reclaimed (reset) as soon as its subtree has been
// mined.
func (m *miner) mineRank(t *rpTree, r int, suffix []tsdb.ItemID, depth int) {
	rk := &t.ranks[r]
	if m.o.CollectStats {
		m.res.Stats.PatternsExamined++
	}
	beta := append(suffix, t.order[r])
	if len(rk.ipi) >= m.o.MinRec {
		m.emit(beta, rk.sup, rk.ipi)
		if m.stop {
			return
		}
	}
	if m.o.MaxLen > 0 && len(beta) >= m.o.MaxLen {
		return
	}
	mark := m.arena.mark()
	cond := t.conditionalTree(&m.arena, &m.ms, m.o, r)
	m.prune(m.ms.pruned)
	m.ms.pruned = 0
	if cond != nil {
		if m.o.CollectStats {
			m.res.Stats.TreeNodes += cond.nodes
		}
		m.mineTree(cond, beta, depth+1)
	}
	m.arena.reset(mark)
}

// prune records n candidates cut by the Erec bound — a suffix extension in
// mineRank or a prefix item dropped from a conditional tree — in the stats
// and the trace alike, so PatternsPruned equals the erec-prune count.
func (m *miner) prune(n int) {
	if m.o.CollectStats {
		m.res.Stats.PatternsPruned += n
	}
	if m.tr != nil {
		m.lc.Observe(obs.PhasePrune, 0, int64(n))
	}
}

// emit delivers one recurring pattern to the miner's sink. ipi is copied
// out of the tree, whose interval slab the arena reclaims.
func (m *miner) emit(beta []tsdb.ItemID, support int, ipi []Interval) {
	items := make([]tsdb.ItemID, len(beta))
	copy(items, beta)
	slices.Sort(items)
	p := Pattern{
		Items:      items,
		Support:    support,
		Recurrence: len(ipi),
		Intervals:  slices.Clone(ipi),
	}
	if m.fn != nil {
		if !m.fn(p) {
			m.stop = true
		}
		return
	}
	m.res.Patterns = append(m.res.Patterns, p)
}

// mineRanks mines the given top-level ranks of t with a fixed pool of
// Parallelism workers (minimum one) pulling rank indexes from a shared
// atomic queue, highest rank first, so a heavy suffix item no longer
// serializes the tail of the run the way the old goroutine-per-item
// semaphore did. The shared initial tree is read-only: every worker reads
// the same subtree ranges. Each rank's partial result has exactly one
// writer, and partials are merged in deterministic rank order after the
// pool drains — which is what makes a shard-restricted rank subset
// (core.MineShardContext) produce exactly the patterns the full mine
// attributes to those ranks.
//
// emit, when non-nil, is the streaming sink of MineFunc, whose caller
// forces a single worker: it then sees patterns in the sequential
// RP-growth order, suffix ranks from the last to the first.
//
// ranks must be sorted ascending and duplicate-free: the ranks the run's
// ShardSpec owns (every rank for {0,1}).
//
// Workers observe ctx between subtree tasks (and, via mineTree, between the
// ranks within one task); once it fires they stop claiming ranks and the
// pool drains. The cancelled return still carries merged partial stats.
func mineRanks(ctx context.Context, t *rpTree, o Options, res *Result, ranks []int, emit func(Pattern) bool) (cancelled bool) {
	partial := make([]Result, len(ranks))
	workers := min(o.Parallelism, len(ranks))
	if workers < 1 {
		workers = 1
	}
	done := ctx.Done()
	var stopped atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Workers inherit the goroutine's pprof labels (phase=mine plus the
		// request's), so a CPU capture taken mid-run attributes worker
		// samples to the request that spawned them.
		go func() {
			defer wg.Done()
			m := newMiner(o)
			m.fn, m.done = emit, done
			mineWorker(m, t, ranks, partial, &next, &stopped)
		}()
	}
	wg.Wait()
	for i := range partial {
		res.Patterns = append(res.Patterns, partial[i].Patterns...)
		res.Stats.PatternsExamined += partial[i].Stats.PatternsExamined
		res.Stats.PatternsPruned += partial[i].Stats.PatternsPruned
		res.Stats.TreeNodes += partial[i].Stats.TreeNodes
		if partial[i].Stats.MaxDepth > res.Stats.MaxDepth {
			res.Stats.MaxDepth = partial[i].Stats.MaxDepth
		}
	}
	return stopped.Load()
}

// mineWorker is one pool worker's loop: claim rank indexes from the shared
// queue, highest first, mine each claimed rank's subtree into its partial
// slot, and stop once ctx fired, the sink asked to stop, or the queue
// drains.
func mineWorker(m *miner, t *rpTree, ranks []int, partial []Result, next *atomic.Int64, stopped *atomic.Bool) {
	m.stack = make([]tsdb.ItemID, 0, len(t.order))
	for !m.stop {
		if m.checkCancel() {
			break
		}
		i := len(ranks) - int(next.Add(1))
		if i < 0 {
			return
		}
		r := ranks[i]
		m.res = &partial[i]
		if m.o.CollectStats {
			m.res.Stats.MaxDepth = 1
		}
		var t0 time.Time
		if m.tr != nil {
			t0 = obs.Now()
		}
		m.mineRank(t, r, m.stack[:0], 1)
		if m.tr != nil {
			// One subtree task per rank: time it and publish the
			// worker's batch (merge times, prune counts) with it.
			m.lc.Observe(obs.PhaseMine, obs.Since(t0), 1)
			m.lc.Flush(m.tr)
		}
	}
	if m.cancelled {
		stopped.Store(true)
	}
}
