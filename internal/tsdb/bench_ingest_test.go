package tsdb

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
)

// benchText is the shared benchmark corpus: a realistic TDB text database
// (dense lines, modest dictionary, strictly increasing timestamps, ~16MB)
// generated once per process.
var benchText = sync.OnceValue(func() []byte {
	rng := rand.New(rand.NewPCG(2024, 7))
	var buf bytes.Buffer
	buf.Grow(16 << 20)
	ts := int64(0)
	for buf.Len() < 16<<20 {
		ts += 1 + rng.Int64N(5)
		buf.WriteString(strconv.FormatInt(ts, 10))
		buf.WriteByte('\t')
		n := 2 + rng.IntN(10)
		for j := 0; j < n; j++ {
			if j > 0 {
				buf.WriteByte(' ')
			}
			fmt.Fprintf(&buf, "item-%04d", rng.IntN(4000))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
})

func BenchmarkIngestTextSequential(b *testing.B) {
	data := benchText()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer() // the first call generates the corpus
	for i := 0; i < b.N; i++ {
		if _, err := readSequential(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestTextParallel(b *testing.B) {
	data := benchText()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadBytesWorkers(data, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIngestMappedView(b *testing.B) {
	// In-memory v2 open: header validation + index materialization, no
	// per-item decode. The MB/s here is "bytes made minable per second".
	db, err := ReadBytes(benchText())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMapped(&buf, db); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMapped(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestMappedOpen(b *testing.B) {
	// Full OpenMapped latency: open, mmap, validate, materialize, close.
	db, err := ReadBytes(benchText())
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.tsdbm")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteMapped(f, db); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
