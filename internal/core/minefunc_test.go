package core

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/obs"
)

func TestMineFuncMatchesMine(t *testing.T) {
	db := paperDB(t)
	o := paperOptions()
	var collected Result
	err := MineFunc(db, o, func(p Pattern) bool {
		collected.Patterns = append(collected.Patterns, p)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	collected.Canonicalize()
	want, err := Mine(db, o)
	if err != nil {
		t.Fatal(err)
	}
	if !collected.Equal(want) {
		t.Fatalf("MineFunc collected %d patterns, Mine found %d",
			len(collected.Patterns), len(want.Patterns))
	}
}

func TestMineFuncEarlyStop(t *testing.T) {
	db := paperDB(t)
	calls := 0
	err := MineFunc(db, paperOptions(), func(Pattern) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("callback ran %d times, want exactly 3 (stop after third)", calls)
	}
}

func TestMineFuncValidatesOptions(t *testing.T) {
	db := paperDB(t)
	if err := MineFunc(db, Options{}, func(Pattern) bool { return true }); err == nil {
		t.Error("invalid options must be rejected")
	}
}

func TestMineFuncEmptyCandidates(t *testing.T) {
	db := paperDB(t)
	// Impossible thresholds: no candidates, callback never fires.
	o := Options{Per: 1, MinPS: 100, MinRec: 5}
	called := false
	if err := MineFunc(db, o, func(Pattern) bool { called = true; return true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("callback fired with no candidates")
	}
}

// TestMineFuncCarriesPhaseLabel checks that a streaming mine runs under
// the phase pprof labels like every other mining path: a CPU profile taken
// while the callback busy-spins must carry the phase=mine label.
func TestMineFuncCarriesPhaseLabel(t *testing.T) {
	db := paperDB(t)
	// Sampling is statistical (100Hz): retry a few windows before declaring
	// the label missing.
	for attempt := 0; attempt < 5; attempt++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skipf("a CPU profile is already running: %v", err)
		}
		spin := time.After(300 * time.Millisecond)
		x := 0.0
		err := MineFunc(db, paperOptions(), func(Pattern) bool {
			for {
				select {
				case <-spin:
					return false
				default:
				}
				for i := 0; i < 1000; i++ {
					x += float64(i % 7)
				}
			}
		})
		pprof.StopCPUProfile()
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(&buf)
		if err != nil {
			t.Fatalf("cpu profile is not gzipped pprof: %v", err)
		}
		proto, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(proto, []byte(obs.LabelPhase)) && bytes.Contains(proto, []byte(obs.PhaseMine.String())) {
			return
		}
	}
	t.Fatal("no profile of a streaming mine carried the phase=mine label")
}
