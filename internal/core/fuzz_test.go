package core

import (
	"context"
	"encoding/binary"
	"sort"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

// decodeTS turns fuzz bytes into a sorted duplicate-free timestamp list.
func decodeTS(data []byte) []int64 {
	var ts []int64
	for len(data) >= 2 {
		v := int64(binary.LittleEndian.Uint16(data))
		ts = append(ts, v)
		data = data[2:]
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := ts[:0]
	for i, v := range ts {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func FuzzMeasures(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0, 4, 0, 7, 0}, int64(2), 3)
	f.Add([]byte{}, int64(1), 1)
	f.Add([]byte{255, 255, 0, 0}, int64(100), 2)
	f.Fuzz(func(t *testing.T, data []byte, per int64, minPS int) {
		if per <= 0 || per > 1<<20 {
			per = 1
		}
		if minPS <= 0 || minPS > 1<<20 {
			minPS = 1
		}
		ts := decodeTS(data)
		ivs := Intervals(ts, per)
		total := 0
		for i, iv := range ivs {
			total += iv.PS
			if iv.Start > iv.End || iv.PS <= 0 {
				t.Fatalf("malformed interval %+v", iv)
			}
			if i > 0 && iv.Start-ivs[i-1].End <= per {
				t.Fatalf("adjacent runs should have merged: %+v then %+v", ivs[i-1], iv)
			}
		}
		if total != len(ts) {
			t.Fatalf("intervals cover %d of %d timestamps", total, len(ts))
		}
		rec, ipi := Recurrence(ts, per, minPS)
		if rec != len(ipi) {
			t.Fatalf("rec %d != len(ipi) %d", rec, len(ipi))
		}
		if erec := Erec(ts, per, minPS); erec < rec {
			t.Fatalf("Erec %d < Rec %d", erec, rec)
		}
		for _, iv := range ipi {
			if iv.PS < minPS {
				t.Fatalf("interesting interval below minPS: %+v", iv)
			}
		}
	})
}

func FuzzMineAgainstVertical(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 3, 4}, int64(2), 2, 1, uint8(0), false, false, uint8(0), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 4, 5, 0, 1, 2, 6, 0, 1, 2, 3}, int64(3), 2, 1, uint8(3), true, false, uint8(0), uint8(1))
	f.Add([]byte{0, 1, 0, 1, 2, 2, 0, 1, 2, 3, 3, 3, 0, 1, 2, 3}, int64(1), 1, 2, uint8(2), false, true, uint8(2), uint8(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 2, 4, 6, 1, 3, 5, 7, 0, 1, 2, 3}, int64(2), 1, 1, uint8(1), false, false, uint8(0), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, per int64, minPS, minRec int, par uint8, lex, noPrune bool, maxLen, shards uint8) {
		if per <= 0 || per > 1000 {
			per = 2
		}
		if minPS <= 0 || minPS > 100 {
			minPS = 2
		}
		if minRec <= 0 || minRec > 10 {
			minRec = 1
		}
		// Interpret the bytes as a tiny database: each byte contributes
		// item (b & 7) at timestamp (index/2 + 1).
		b := newFuzzBuilder()
		for i, by := range data {
			if i > 200 {
				break
			}
			b.add(int64(i/2+1), by&7)
		}
		db := b.build()
		if db.Len() == 0 {
			return
		}
		o := Options{Per: per, MinPS: minPS, MinRec: minRec, Parallelism: int(par % 4),
			DisableErecPruning: noPrune, MaxLen: int(maxLen % 4)}
		if lex {
			o.ItemOrder = Lexicographic
		}
		// Mine every shard of a 1- to 7-way split, each from its own
		// truncated initial tree, and merge them as a scatter does.
		count := int(shards%7) + 1
		a := &Result{}
		for idx := 0; idx < count; idx++ {
			p, err := MineShardContext(context.Background(), db, o, ShardSpec{Index: idx, Count: count})
			if err != nil {
				t.Fatal(err)
			}
			a.Merge(p)
		}
		a.Canonicalize()
		v, err := MineVertical(db, o)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(v) {
			t.Fatalf("%+v, %d shards: RP-growth and vertical disagree: %d vs %d patterns",
				o, count, len(a.Patterns), len(v.Patterns))
		}
	})
}

// fuzzBuilder adapts tsdb.Builder to the fuzz target's byte-driven input.
type fuzzBuilder struct {
	b *tsdb.Builder
}

func newFuzzBuilder() *fuzzBuilder {
	fb := &fuzzBuilder{b: tsdb.NewBuilder()}
	for i := 0; i < 8; i++ {
		fb.b.Dict().Intern(string(rune('a' + i)))
	}
	return fb
}

func (fb *fuzzBuilder) add(ts int64, item byte) {
	fb.b.AddIDs(ts, tsdb.ItemID(item))
}

func (fb *fuzzBuilder) build() *tsdb.DB { return fb.b.Build() }
