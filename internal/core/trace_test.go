package core

import (
	"context"
	"math/rand/v2"
	"strconv"
	"testing"

	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

func TestMineTracedMatchesUntraced(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2}

	plain, err := Mine(db, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Trace = obs.NewTrace()
	traced, err := Mine(db, o)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(traced) {
		t.Fatal("tracing changed the mining result")
	}
	if len(plain.Patterns) == 0 {
		t.Fatal("workload produced no patterns; the trace assertions below would be vacuous")
	}

	r := o.Trace.Report()
	if r.Runs != 1 || r.TotalNanos <= 0 {
		t.Fatalf("want one timed run, got runs=%d total=%d", r.Runs, r.TotalNanos)
	}
	stats := map[string]obs.PhaseStat{}
	for _, s := range r.Phases {
		stats[s.Phase] = s
	}
	// Every singleton phase ran once; mining processed one task per
	// top-level tree rank; merges and prunes happened.
	for phase, wantCount := range map[string]int64{"scan": 1, "tree-build": 1, "finalize": 1} {
		if got := stats[phase].Count; got != wantCount {
			t.Errorf("%s count = %d, want %d", phase, got, wantCount)
		}
	}
	if stats["mine"].Count == 0 || stats["mine"].Nanos <= 0 {
		t.Errorf("mine phase empty: %+v", stats["mine"])
	}
	if stats["ts-merge"].Count == 0 {
		t.Error("no ts-merge observations on a merge-heavy workload")
	}
	if stats["erec-prune"].Count == 0 {
		t.Error("no erec-prune observations on a pruning workload")
	}
	// The top-level phases partition the run: their sum cannot exceed the
	// total, and on this workload covers the bulk of it.
	covered := r.CoveredNanos()
	if covered > r.TotalNanos {
		t.Errorf("phase times %d exceed the run total %d", covered, r.TotalNanos)
	}
	if covered*2 < r.TotalNanos {
		t.Errorf("phases cover under half the run (%d of %d); the taxonomy is missing something big", covered, r.TotalNanos)
	}
	// The nested merge time is contained in the mining phase's.
	if stats["ts-merge"].Nanos > stats["mine"].Nanos {
		t.Errorf("ts-merge time %d exceeds enclosing mine time %d", stats["ts-merge"].Nanos, stats["mine"].Nanos)
	}
}

// TestMineTracedParallel shares one Trace across the worker pool (the
// production shape in rpserved) and checks counts are complete; run under
// -race by make check.
func TestMineTracedParallel(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)

	seq := Options{Per: 4, MinPS: 3, MinRec: 2, Trace: obs.NewTrace()}
	if _, err := Mine(db, seq); err != nil {
		t.Fatal(err)
	}
	par := Options{Per: 4, MinPS: 3, MinRec: 2, Parallelism: 4, Trace: obs.NewTrace()}
	res, err := Mine(db, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}

	sr, pr := seq.Trace.Report(), par.Trace.Report()
	var sc, pc map[string]int64
	sc, pc = map[string]int64{}, map[string]int64{}
	for _, s := range sr.Phases {
		sc[s.Phase] = s.Count
	}
	for _, s := range pr.Phases {
		pc[s.Phase] = s.Count
	}
	// Both modes process one top-level task per initial tree rank.
	if sc["mine"] != pc["mine"] || pc["mine"] == 0 {
		t.Errorf("task counts differ: sequential=%d parallel=%d", sc["mine"], pc["mine"])
	}
	if pc["ts-merge"] == 0 || pc["erec-prune"] == 0 {
		t.Errorf("parallel run lost nested counts: %v", pc)
	}
	if pr.Runs != 1 {
		t.Errorf("parallel runs = %d, want 1", pr.Runs)
	}
}

// TestMineTimelineRecordsRun attaches a timeline (the flight-recorder
// path) and checks the retained spans describe the run at subtree-task
// granularity, agree with the aggregates, and carry labels and nested
// work — sequentially and across the worker pool (-race via make check).
func TestMineTimelineRecordsRun(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)

	for _, par := range []int{0, 4} {
		o := Options{Per: 4, MinPS: 3, MinRec: 2, Parallelism: par, Trace: obs.NewTrace()}
		tl := obs.NewTimeline(0)
		o.Trace.AttachTimeline(tl)
		plain, err := Mine(db, Options{Per: 4, MinPS: 3, MinRec: 2, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Equal(res) {
			t.Fatalf("par=%d: timeline retention changed the mining result", par)
		}

		snap := tl.Snapshot()
		counts := map[string]int{}
		var tasks, labelled int
		var taskNanos, merges, prunes int64
		for _, s := range snap.Spans {
			counts[s.Phase]++
			if s.Phase == "mine" {
				tasks++
				taskNanos += s.DurNS
				merges += s.Merges
				prunes += s.Prunes
				if s.Label != "" {
					labelled++
				}
				if s.MergeNS > s.DurNS {
					t.Errorf("par=%d: task %q nested merge time %d exceeds its duration %d", par, s.Label, s.MergeNS, s.DurNS)
				}
			}
		}
		for _, phase := range []string{"scan", "tree-build", "finalize", "total"} {
			if counts[phase] != 1 {
				t.Errorf("par=%d: retained %d %q spans, want 1", par, counts[phase], phase)
			}
		}
		r := o.Trace.Report()
		stats := map[string]obs.PhaseStat{}
		for _, s := range r.Phases {
			stats[s.Phase] = s
		}
		if snap.Dropped != 0 {
			t.Fatalf("par=%d: default cap dropped %d spans on a small workload", par, snap.Dropped)
		}
		if int64(tasks) != stats["mine"].Count || tasks == 0 {
			t.Errorf("par=%d: %d retained task spans, aggregate says %d tasks", par, tasks, stats["mine"].Count)
		}
		if labelled != tasks {
			t.Errorf("par=%d: only %d of %d task spans labelled", par, labelled, tasks)
		}
		if taskNanos != stats["mine"].Nanos {
			t.Errorf("par=%d: retained task time %d != aggregate mine time %d", par, taskNanos, stats["mine"].Nanos)
		}
		if merges != stats["ts-merge"].Count || prunes != stats["erec-prune"].Count {
			t.Errorf("par=%d: per-span work (merges=%d prunes=%d) disagrees with aggregates (%d, %d)",
				par, merges, prunes, stats["ts-merge"].Count, stats["erec-prune"].Count)
		}
	}
}

// TestMineFuncTraced checks the streaming entry point feeds the same trace
// machinery.
func TestMineFuncTraced(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2, Trace: obs.NewTrace()}
	n := 0
	if err := MineFunc(db, o, func(Pattern) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no patterns streamed")
	}
	r := o.Trace.Report()
	if r.Runs != 1 || r.CoveredNanos() <= 0 {
		t.Fatalf("stream run not traced: runs=%d covered=%d", r.Runs, r.CoveredNanos())
	}
}

// TestPatternsPrunedMatchesTrace pins MineStats.PatternsPruned as an exact
// count: it includes the prefix items conditionalTree drops by the Erec
// check, so it equals the trace's erec-prune count on every execution path,
// and the shards of a scatter sum to the single-box stat.
func TestPatternsPrunedMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	ctx := context.Background()
	prunes := func(tr *obs.Trace) int {
		for _, s := range tr.Report().Phases {
			if s.Phase == obs.PhasePrune.String() {
				return int(s.Count)
			}
		}
		return 0
	}
	var want int
	for _, par := range []int{0, 3} {
		o := Options{Per: 4, MinPS: 3, MinRec: 2, Parallelism: par, CollectStats: true, Trace: obs.NewTrace()}
		res, err := MineContext(ctx, db, o)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Stats.PatternsPruned
		if got == 0 || got != prunes(o.Trace) {
			t.Fatalf("par=%d: PatternsPruned = %d, trace erec-prune count = %d; want equal and above 0", par, got, prunes(o.Trace))
		}
		if par == 0 {
			want = got
		} else if got != want {
			t.Errorf("par=%d: PatternsPruned = %d, sequential run counted %d", par, got, want)
		}
	}
	for _, count := range []int{2, 3} {
		sum := 0
		for idx := 0; idx < count; idx++ {
			o := Options{Per: 4, MinPS: 3, MinRec: 2, CollectStats: true, Trace: obs.NewTrace()}
			res, err := MineShardContext(ctx, db, o, ShardSpec{Index: idx, Count: count})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PatternsPruned != prunes(o.Trace) {
				t.Errorf("shard %d/%d: PatternsPruned = %d, trace counted %d", idx, count, res.Stats.PatternsPruned, prunes(o.Trace))
			}
			sum += res.Stats.PatternsPruned
		}
		if sum != want {
			t.Errorf("%d shards: PatternsPruned sums to %d, single box counted %d", count, sum, want)
		}
	}
}

// TestSupportBoundSkipsUnions checks that the support bound decides
// candidates without building their ts-lists, and changes nothing else.
// The only unions are conditionalTree's Erec checks, one per prefix item
// it considers: every such item is either pruned, and all erec-prunes are
// such items, or kept, and then evaluated once as a conditional tree's
// rank. Recurrence evaluations also count the top-level ranks, one per
// candidate item, which need no union. Without the bound the ts-merges
// would thus equal erec-prunes plus recurrence evaluations less the
// candidate items; fewer can only come from skipped unions.
//
// Item frequencies fall off as 1/rank, as in retail data, so the rare
// items' supports are what the bound decides.
func TestSupportBoundSkipsUnions(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	b := tsdb.NewBuilder()
	for ts := int64(1); ts <= 2000; ts++ {
		for i := 0; i < 20; i++ {
			if rng.Float64() < 0.6/float64(i+1) {
				b.Add("i"+strconv.Itoa(i), ts)
			}
		}
	}
	db := b.Build()
	base := Options{Per: 4, MinPS: 3, MinRec: 2}
	want, err := MineVertical(db, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Patterns) == 0 {
		t.Fatal("workload produced no patterns; the comparison would be vacuous")
	}
	for _, par := range []int{0, 2} {
		o := base
		o.Parallelism, o.CollectStats, o.Trace = par, true, obs.NewTrace()
		res, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(want) {
			t.Fatalf("par=%d: patterns differ from MineVertical's", par)
		}
		counts := map[string]int64{}
		for _, s := range o.Trace.Report().Phases {
			counts[s.Phase] = s.Count
		}
		merges, prunes := counts[obs.PhaseMerge.String()], counts[obs.PhasePrune.String()]
		evals, top := int64(res.Stats.PatternsExamined), int64(res.Stats.CandidateItems)
		if merges >= prunes+evals-top {
			t.Errorf("par=%d: %d ts-merges, want fewer than %d erec-prunes + %d recurrence evaluations - %d candidate items",
				par, merges, prunes, evals, top)
		}
	}
}
