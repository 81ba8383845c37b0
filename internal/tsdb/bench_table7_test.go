package tsdb_test

import (
	"bytes"
	"sync"
	"testing"

	"github.com/recurpat/rp/internal/gen"
	"github.com/recurpat/rp/internal/tsdb"
)

// table7Texts are the texts one Table 7 batch pass parses: the three
// Shop-14 cells' database and the reduced Twitter cell's, as tsdb.Write
// emits them. Shop-14 is listed once per cell because each cell loads it.
var table7Texts = sync.OnceValue(func() [][]byte {
	text := func(db *tsdb.DB) []byte {
		var buf bytes.Buffer
		if err := tsdb.Write(&buf, db); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	shop := text(gen.Shop(gen.DefaultShop(2)))
	twitter := text(gen.Twitter(gen.DefaultTwitter(3).Scale(0.02)))
	return [][]byte{shop, shop, shop, twitter}
})

// BenchmarkIngestTable7 parses the texts of one Table 7 batch pass per op:
// short names (Shop-14: 138 names of 4–6 bytes, about 5 items a row) and a
// wider dictionary with long rows (Twitter: 1,000 names, about 45 items a
// row).
func BenchmarkIngestTable7(b *testing.B) {
	texts := table7Texts()
	size := 0
	for _, t := range texts {
		size += len(t)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer() // the first call generates the texts
	for i := 0; i < b.N; i++ {
		for _, t := range texts {
			if _, err := tsdb.ReadBytes(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}
