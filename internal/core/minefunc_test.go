package core

import (
	"bytes"
	"compress/gzip"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
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

// discoveryOrder renders the item sequences MineFunc emits, in emission
// order, one pattern per line with its items named by the dictionary.
func discoveryOrder(t *testing.T, db *tsdb.DB, o Options) string {
	t.Helper()
	var b strings.Builder
	err := MineFunc(db, o, func(p Pattern) bool {
		for i, it := range p.Items {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(db.Dict.Name(it))
		}
		b.WriteByte('\n')
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMineFuncDiscoveryOrder pins the order MineFunc delivers patterns in:
// suffix items from the least to the most frequent, each suffix's pattern
// before the patterns grown from its conditional tree. The random DB's
// sequence is pinned by its FNV-1a digest and length.
func TestMineFuncDiscoveryOrder(t *testing.T) {
	got := discoveryOrder(t, paperDB(t), paperOptions())
	want := "f\ne f\ne\nd\nc d\nb\na b\na\n"
	if got != want {
		t.Errorf("paper example discovery order:\n%s\nwant:\n%s", got, want)
	}

	rng := rand.New(rand.NewPCG(5, 8))
	db := randomDB(rng, 12, 400, 0.3)
	seq := discoveryOrder(t, db, Options{Per: 3, MinPS: 2, MinRec: 3})
	h := fnv.New64a()
	h.Write([]byte(seq))
	if n, sum := strings.Count(seq, "\n"), h.Sum64(); n != 86 || sum != 0x20f246dfdc5691db {
		t.Errorf("random DB discovery order: %d patterns, digest %#x; want 86, 0x20f246dfdc5691db", n, sum)
	}
}
