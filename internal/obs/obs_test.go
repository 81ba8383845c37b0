package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func phaseStat(t *testing.T, r PhaseReport, name string) PhaseStat {
	t.Helper()
	for _, s := range r.Phases {
		if s.Phase == name {
			return s
		}
	}
	t.Fatalf("report has no phase %q", name)
	return PhaseStat{}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.Start(PhaseScan)
	sp.End()
	tr.StartTotal().End()
	tr.Observe(PhaseMine, 10, 1)
	tr.ObserveTotal(10)
	tr.Reset()
	r := tr.Report()
	if len(r.Phases) != 0 || r.TotalNanos != 0 || r.Runs != 0 {
		t.Fatalf("nil trace produced a non-empty report: %+v", r)
	}
	// A Local flushed to a nil trace must still zero itself.
	var lc Local
	lc.Observe(PhaseMerge, 5, 2)
	lc.Flush(tr)
	if lc.nanos[PhaseMerge] != 0 || lc.counts[PhaseMerge] != 0 {
		t.Fatal("Local not zeroed by Flush(nil)")
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace()
	total := tr.StartTotal()
	outer := tr.Start(PhaseMine)
	inner := tr.Start(PhaseMerge)
	time.Sleep(2 * time.Millisecond)
	inner.End()
	outer.End()
	total.End()

	r := tr.Report()
	mine, merge := phaseStat(t, r, "mine"), phaseStat(t, r, "ts-merge")
	if merge.Nanos <= 0 || mine.Nanos <= 0 || r.TotalNanos <= 0 {
		t.Fatalf("expected positive times, got mine=%d merge=%d total=%d", mine.Nanos, merge.Nanos, r.TotalNanos)
	}
	// The nested span's time is contained in the outer span's, and the
	// outer span's in the total.
	if merge.Nanos > mine.Nanos {
		t.Errorf("nested merge time %d exceeds enclosing mine time %d", merge.Nanos, mine.Nanos)
	}
	if mine.Nanos > r.TotalNanos {
		t.Errorf("mine time %d exceeds total %d", mine.Nanos, r.TotalNanos)
	}
	if mine.Count != 1 || merge.Count != 1 || r.Runs != 1 {
		t.Errorf("span counts: mine=%d merge=%d runs=%d, want 1 each", mine.Count, merge.Count, r.Runs)
	}
	// Coverage must exclude the nested phase: only mine contributes here.
	if got := r.CoveredNanos(); got != mine.Nanos {
		t.Errorf("CoveredNanos = %d, want mine's %d (nested phases excluded)", got, mine.Nanos)
	}
}

// TestConcurrentFlushAccuracy drives the tracer the way the parallel miner
// does — one Local per worker, flushed once per task — and checks that no
// observation is lost or double-counted. Run under -race by make check.
func TestConcurrentFlushAccuracy(t *testing.T) {
	const workers, tasks = 8, 200
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lc Local
			for i := 0; i < tasks; i++ {
				lc.Observe(PhaseMine, 10, 1)
				lc.Observe(PhaseMerge, 3, 2)
				lc.Observe(PhasePrune, 0, 1)
				lc.Flush(tr)
			}
			tr.ObserveTotal(1)
		}()
	}
	wg.Wait()

	r := tr.Report()
	want := []struct {
		phase string
		nanos int64
		count int64
	}{
		{"mine", workers * tasks * 10, workers * tasks},
		{"ts-merge", workers * tasks * 3, workers * tasks * 2},
		{"erec-prune", 0, workers * tasks},
	}
	for _, w := range want {
		s := phaseStat(t, r, w.phase)
		if s.Nanos != w.nanos || s.Count != w.count {
			t.Errorf("%s: got nanos=%d count=%d, want nanos=%d count=%d",
				w.phase, s.Nanos, s.Count, w.nanos, w.count)
		}
	}
	if r.Runs != workers || r.TotalNanos != workers {
		t.Errorf("totals: runs=%d totalNanos=%d, want %d and %d", r.Runs, r.TotalNanos, workers, workers)
	}
}

func TestPhaseReportString(t *testing.T) {
	tr := NewTrace()
	tr.Observe(PhaseScan, 1_000_000, 1)
	tr.Observe(PhaseTreeBuild, 2_000_000, 1)
	tr.Observe(PhaseMine, 6_000_000, 42)
	tr.Observe(PhaseFinalize, 1_000_000, 1)
	tr.Observe(PhaseMerge, 3_000_000, 99)
	tr.Observe(PhasePrune, 0, 7)
	tr.ObserveTotal(10_000_000)

	out := tr.Report().String()
	for _, want := range []string{
		"scan", "tree-build", "mine", "finalize", "ts-merge", "erec-prune",
		"42 tasks", "99 merges", "7 prunes",
		"60.0%",  // mine share of total
		"100.0%", // coverage: 1+2+6+1 of 10ms
		"1 run(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	// Nested phases render dashes for time (untimed) and share (their time
	// is already inside mine's).
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "erec-prune") {
			continue
		}
		dashes := 0
		for _, f := range strings.Fields(line) {
			if f == "-" {
				dashes++
			}
		}
		if dashes != 2 {
			t.Errorf("nested untimed phase line should render two dash fields: %q", line)
		}
	}
}

func TestBenchMetrics(t *testing.T) {
	tr := NewTrace()
	tr.Observe(PhaseScan, 300, 3)
	tr.ObserveTotal(1000)
	tr.ObserveTotal(1000)
	tr.Observe(PhaseScan, 100, 1)

	m := tr.Report().BenchMetrics()
	if m["scan-ns/op"] != 200 {
		t.Errorf("scan-ns/op = %v, want 200 (400ns over 2 runs)", m["scan-ns/op"])
	}
	if m["scan-count/op"] != 2 {
		t.Errorf("scan-count/op = %v, want 2", m["scan-count/op"])
	}
	if (PhaseReport{}).BenchMetrics() != nil {
		t.Error("zero-run report should produce no metrics")
	}
}

func TestRequestIDsAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := RequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("unexpected id shape %q", id)
		}
	}
}

func TestParsePhase(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := ParsePhase(p.String())
		if !ok || got != p {
			t.Errorf("ParsePhase(%q) = %v/%v, want %v", p.String(), got, ok, p)
		}
	}
	if _, ok := ParsePhase("no-such-phase"); ok {
		t.Error("ParsePhase accepted an unknown name")
	}
}
