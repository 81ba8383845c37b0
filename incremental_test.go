package rp

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/core"
)

// paperIncremental appends the paper's running example, row by row, to a
// fresh Incremental and returns it with the batch database of the same rows.
func paperIncremental(t *testing.T, o Options) (*Incremental, *DB) {
	t.Helper()
	db := FromEvents(paperEvents())
	inc, err := NewIncremental(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range db.Trans {
		if err := inc.Append(tr.TS, db.PatternNames(tr.Items)...); err != nil {
			t.Fatal(err)
		}
	}
	return inc, db
}

func TestIncrementalCandidatesMatchRPList(t *testing.T) {
	o := Options{Per: 2, MinPS: 3, MinRec: 2}
	inc, db := paperIncremental(t, o)
	if inc.Len() != db.Len() {
		t.Fatalf("Len = %d, want %d", inc.Len(), db.Len())
	}
	got := inc.Candidates()
	if !slices.IsSortedFunc(got, func(a, b CandidateItem) int { return b.Support - a.Support }) {
		t.Errorf("candidates not in support-descending order: %+v", got)
	}
	var want []CandidateItem
	for _, e := range core.BuildRPList(db, o).Candidates {
		want = append(want, CandidateItem{Item: db.Dict.Name(e.Item), Support: e.Support, Erec: e.Erec})
	}
	// The two databases intern names in different orders, and the RP-list
	// breaks support ties by ItemID, so compare in one name order.
	byName := func(a, b CandidateItem) int {
		return cmp.Or(b.Support-a.Support, strings.Compare(a.Item, b.Item))
	}
	slices.SortFunc(got, byName)
	slices.SortFunc(want, byName)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("Candidates = %+v\nRP-list     %+v", got, want)
	}
}

func TestIncrementalMineMatchesBatch(t *testing.T) {
	o := Options{Per: 2, MinPS: 3, MinRec: 2}
	inc, _ := paperIncremental(t, o)
	got, err := inc.Mine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(inc.DB(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 || !reflect.DeepEqual(got, want) {
		t.Errorf("Incremental.Mine = %d patterns, Mine over DB() = %d; want the same 8 of Table 2", len(got), len(want))
	}
}

func TestIncrementalAppendRejectsNonIncreasingTS(t *testing.T) {
	inc, err := NewIncremental(Options{Per: 2, MinPS: 3, MinRec: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(5, "a"); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{5, 4} {
		err := inc.Append(ts, "b")
		if err == nil || !strings.Contains(err.Error(), "core: out-of-order append") {
			t.Errorf("Append(%d) after 5: err = %v, want core's out-of-order error", ts, err)
		}
	}
	if inc.Len() != 1 {
		t.Errorf("Len = %d after rejected appends, want 1", inc.Len())
	}
}
