package core

import (
	"math/rand/v2"
	"testing"

	"github.com/recurpat/rp/internal/gen"
	"github.com/recurpat/rp/internal/obs"
)

// benchWorkload is a mid-size synthetic workload for the hot-path benchmarks
// (internal/bench would be an import cycle here): dense enough that
// conditional trees go several levels deep, with the thresholds scaled so a
// few hundred patterns survive. Deterministic by construction, so ns/op and
// allocs/op are comparable across runs; BENCH_core.json tracks them.
func benchWorkload() (Options, *rpTree) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2}
	list := BuildRPList(db, o)
	return o, buildRPTree(db, list, ShardSpec{Count: 1})
}

func BenchmarkBuildRPTree(b *testing.B) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2}
	list := BuildRPList(db, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := buildRPTree(db, list, ShardSpec{Count: 1})
		if tree.nodes == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkBuildRPTreeShop14 builds the initial trees of the three Shop-14
// cells of Table 7 (per 360, 720 and 1440 at minPS 0.2% and minRec 2), one
// set per op: 54,111 transactions over 138 items, a tree far past the
// cache, where BenchmarkBuildRPTree's fits in it.
func BenchmarkBuildRPTreeShop14(b *testing.B) {
	db := gen.Shop(gen.DefaultShop(2))
	var lists []*RPList
	for _, per := range []int64{360, 720, 1440} {
		o := Options{Per: per, MinPS: MinPSFromPercent(db, 0.2), MinRec: 2}
		lists = append(lists, BuildRPList(db, o))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, list := range lists {
			if tree := buildRPTree(db, list, ShardSpec{Count: 1}); tree.nodes == 0 {
				b.Fatal("empty tree")
			}
		}
	}
}

// BenchmarkMineShop14Cells mines the three Shop-14 cells of Table 7 (per
// 360, 720 and 1440 at minPS 0.2% and minRec 2), one set per op, with one
// worker: mines whose trees are far past the cache (see
// BenchmarkBuildRPTreeShop14), where BenchmarkMineEndToEnd's fit in it.
func BenchmarkMineShop14Cells(b *testing.B) {
	db := gen.Shop(gen.DefaultShop(2))
	var cells []Options
	for _, per := range []int64{360, 720, 1440} {
		cells = append(cells, Options{Per: per, MinPS: MinPSFromPercent(db, 0.2), MinRec: 2, Parallelism: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range cells {
			res, err := Mine(db, o)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Patterns) == 0 {
				b.Fatal("no patterns")
			}
		}
	}
}

func BenchmarkConditionalTree(b *testing.B) {
	o, tree := benchWorkload()
	var arena nodeArena
	var ms mergeScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built := 0
		for r := len(tree.order) - 1; r >= 1; r-- {
			mark := arena.mark()
			if ct := tree.conditionalTree(&arena, &ms, o, r); ct != nil {
				built++
			}
			arena.reset(mark)
		}
		if built == 0 {
			b.Fatal("no conditional trees built")
		}
	}
}

func BenchmarkMineEndToEnd(b *testing.B) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(db, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

func BenchmarkMineEndToEndParallel(b *testing.B) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2, Parallelism: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(db, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// BenchmarkMineEndToEndTraced is BenchmarkMineEndToEnd with a phase trace
// attached: its ns/op measures the tracing overhead on the same workload
// (Options.Trace == nil stays the untraced baseline above), and its
// reported "<phase>-ns/op" / "<phase>-count/op" metrics carry the phase
// attribution into BENCH_core.json via make bench-core.
func BenchmarkMineEndToEndTraced(b *testing.B) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2, Trace: obs.NewTrace()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(db, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
	b.StopTimer()
	for k, v := range o.Trace.Report().BenchMetrics() {
		b.ReportMetric(v, k)
	}
}
