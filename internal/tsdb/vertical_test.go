package tsdb

import (
	"reflect"
	"slices"
	"testing"
)

func TestIntersectTS(t *testing.T) {
	cases := []struct {
		a, b, want []int64
	}{
		{nil, nil, nil},
		{[]int64{1, 2, 3}, nil, nil},
		{[]int64{1, 2, 3}, []int64{2, 3, 4}, []int64{2, 3}},
		{[]int64{1, 5, 9}, []int64{2, 6, 10}, nil},
		{[]int64{1, 2, 3}, []int64{1, 2, 3}, []int64{1, 2, 3}},
	}
	for _, c := range cases {
		got := IntersectTS(nil, c.a, c.b)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("IntersectTS(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		// Symmetry.
		rev := IntersectTS(nil, c.b, c.a)
		if !reflect.DeepEqual(rev, c.want) {
			t.Errorf("IntersectTS not symmetric on %v, %v", c.a, c.b)
		}
	}
	// dst is appended to.
	dst := []int64{99}
	got := IntersectTS(dst, []int64{1, 2}, []int64{2, 3})
	if !reflect.DeepEqual(got, []int64{99, 2}) {
		t.Errorf("append semantics: %v", got)
	}
}

func TestCompareItemsets(t *testing.T) {
	ordered := [][]ItemID{{0}, {2}, {0, 1}, {0, 3}, {1, 2}, {0, 1, 2}}
	for i, a := range ordered {
		for j, b := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := CompareItemsets(a, b); got != want {
				t.Errorf("CompareItemsets(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
	in := []ItemID{3, 1, 2}
	if got := SortedItems(in); !reflect.DeepEqual(got, []ItemID{1, 2, 3}) || in[0] != 3 {
		t.Errorf("SortedItems: got %v, input now %v", got, in)
	}
}

type walkVisit struct {
	items []ItemID
	ts    []int64
}

// FuzzVerticalWalk checks the walk against a lattice enumeration by direct
// scans. The fuzz bytes make a DB over items a..e: each byte advances the
// timestamp by 1 + its top three bits and its low five bits say which items
// occur. Items need minSup occurrences to be kept or to extend an itemset,
// and visit refuses to grow any itemset containing the item cut. The walk
// must then visit, exactly once and in depth-first order over the items
// sorted by support descending (ties by ItemID), every itemset that meets
// minSup, is at most maxLen long, and has no proper prefix containing cut,
// each with the ts-list a scan of the DB gives.
func FuzzVerticalWalk(f *testing.F) {
	f.Add([]byte{0x1f, 0x03, 0x25, 0x0e, 0x11, 0x1f, 0x46, 0x19, 0x0f}, uint8(1), uint8(0), uint8(7))
	f.Add([]byte{0x07, 0x0b, 0x16, 0x1c, 0x07, 0x13}, uint8(2), uint8(2), uint8(1))
	f.Add([]byte{0x1f, 0x1f, 0x1f, 0x1f}, uint8(0), uint8(3), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, minSup, maxLen, cut uint8) {
		if len(data) > 64 {
			data = data[:64]
		}
		b := NewBuilder()
		var now int64
		for _, x := range data {
			now += 1 + int64(x>>5)
			for i := 0; i < 5; i++ {
				if x&(1<<i) != 0 {
					b.Add(string(rune('a'+i)), now)
				}
			}
		}
		db := b.Build()
		need := 1 + int(minSup%4)
		limit := int(maxLen % 4)
		cutID := ItemID(cut % 8)
		frequent := func(ts []int64) bool { return len(ts) >= need }

		// The documented exploration order, from scans.
		var order []ItemID
		for id := ItemID(0); int(id) < db.Dict.Len(); id++ {
			if frequent(db.TSList([]ItemID{id})) {
				order = append(order, id)
			}
		}
		slices.SortStableFunc(order, func(x, y ItemID) int {
			return len(db.TSList([]ItemID{y})) - len(db.TSList([]ItemID{x}))
		})
		v := db.VerticalBySupport(frequent)
		if !slices.Equal(v.Items, order) {
			t.Fatalf("items %v, want %v", v.Items, order)
		}

		// Every subset of the kept items as positions in order; ascending
		// position sequences sorted lexicographically are depth-first order.
		var seqs [][]int
		for mask := 1; mask < 1<<len(order); mask++ {
			var seq []int
			for p := range order {
				if mask&(1<<p) != 0 {
					seq = append(seq, p)
				}
			}
			seqs = append(seqs, seq)
		}
		slices.SortFunc(seqs, slices.Compare[[]int])
		var want []walkVisit
		for _, seq := range seqs {
			items := make([]ItemID, len(seq))
			for i, p := range seq {
				items[i] = order[p]
			}
			ts := db.TSList(SortedItems(items))
			if !frequent(ts) || limit > 0 && len(items) > limit || slices.Contains(items[:len(items)-1], cutID) {
				continue
			}
			want = append(want, walkVisit{items, ts})
		}

		var got []walkVisit
		v.Walk(limit, func(items []ItemID, ts []int64) bool {
			got = append(got, walkVisit{slices.Clone(items), ts})
			return !slices.Contains(items, cutID)
		}, frequent)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("minSup=%d maxLen=%d cut=%d\ngot  %v\nwant %v", need, limit, cutID, got, want)
		}
	})
}
