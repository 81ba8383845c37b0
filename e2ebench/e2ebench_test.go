package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/gen"
	"github.com/recurpat/rp/internal/tsdb"
)

// smallShop is a two-day Shop-14 sample, small enough for unit tests.
var smallShop = shape{"shop14@2d", func() *tsdb.DB { return gen.Shop(gen.DefaultShop(2).Scale(0.05)) }}

var smallCell = thresholds{Per: 360, MinPSPercent: 2, MinRec: 2}

// smallKey returns smallShop's input and its reference for smallCell.
func smallKey(t *testing.T) (*input, *reference) {
	t.Helper()
	in, err := makeInput(smallShop, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mineReference(in.db, smallCell)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.patterns) == 0 {
		t.Fatal("the reference has no patterns")
	}
	return in, ref
}

// TestCorruptedReplyIsAFailedOp serves a reply rendered as rpserved
// renders it, intact and corrupted, and checks that only the intact one
// counts as a successful op.
func TestCorruptedReplyIsAFailedOp(t *testing.T) {
	in, ref := smallKey(t)
	key := mineKey{class: classCached, fp: "0000000000000000", t: smallCell, kind: "small", want: ref.digest(0), count: len(ref.patterns)}
	res, err := core.Mine(in.db, smallCell.options(in.db))
	if err != nil {
		t.Fatal(err)
	}
	pats := api.PatternsFromCore(in.db, res.Patterns)
	good, err := json.MarshalIndent(api.MineResponse{V: api.Version, Count: len(pats), Cached: true, Patterns: pats}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	replace := func(old, new string) []byte { return bytes.Replace(good, []byte(old), []byte(new), 1) }
	cases := []struct {
		name   string
		status int
		body   []byte
		failed int
	}{
		{"intact", http.StatusOK, good, 0},
		{"a support changed", http.StatusOK, replace(`"support": `, `"support": 1`), 1},
		{"an interval moved", http.StatusOK, replace(`"start": `, `"start": 9`), 1},
		{"truncated", http.StatusOK, good[:len(good)/2], 1},
		{"partial", http.StatusOK, replace(`"cached": true,`, `"cached": true, "partial": true,`), 1},
		{"mined instead of cached", http.StatusOK, replace(`"cached": true`, `"cached": false`), 1},
		{"server error", http.StatusInternalServerError, []byte(`{"error":"boom"}`), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				_, _ = w.Write(tc.body)
			}))
			defer srv.Close()
			c := newServeClient(&serveMix{hc: srv.Client(), url: srv.URL, hot: []mineKey{key}}, 0, 1)
			c.step(classCached)
			if c.attempted != 1 || c.failed != tc.failed {
				t.Errorf("attempted %d failed %d, want 1 and %d (errors %v)", c.attempted, c.failed, tc.failed, c.errs)
			}
		})
	}
}

// TestBatchPassFailsOnWrongOutput checks that a batch pass whose output
// differs from its reference counts as failed.
func TestBatchPassFailsOnWrongOutput(t *testing.T) {
	in, ref := smallKey(t)
	cell := batchCell{Name: in.name, Thresholds: smallCell, Patterns: len(ref.patterns), text: in.text, want: ref.digest(0)}
	var rep batchReport
	rep.pass([]batchCell{cell}, false)
	cell.want = ref.digest(1) // every interval one timestamp off
	rep.pass([]batchCell{cell}, false)
	if rep.Attempted != 2 || rep.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1 (%v)", rep.Attempted, rep.Failed, rep.Errors)
	}
}

// TestCountsRepeatExactly generates the batch cells of one seed twice, as
// two runs do, makes a traced pass over each and requires identical work
// counts and response bytes.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the full-scale batch cells")
	}
	var counts []map[string]int64
	for run := 0; run < 2; run++ {
		cells, _, err := batchCells(1)
		if err != nil {
			t.Fatal(err)
		}
		var rep batchReport
		rep.pass(cells, true)
		if rep.Failed != 0 {
			t.Fatalf("run %d: %v", run, rep.Errors)
		}
		counts = append(counts, rep.Layers[0].Counts)
	}
	if !maps.Equal(counts[0], counts[1]) {
		t.Errorf("counts differ between runs:\n%v\n%v", counts[0], counts[1])
	}
	for _, k := range []string{"core.ts_merges", "core.erec_prunes", "core.recurrence_evals", "core.tree_nodes", "core.candidate_items", "core.patterns", "api.response_bytes"} {
		if counts[0][k] == 0 {
			t.Errorf("%s is 0", k)
		}
	}
	// MineStats.PatternsPruned misses the Erec prunes made while building
	// conditional trees, which only the trace counts (see README.md).
	t.Logf("MineStats.PatternsPruned %d, trace erec prunes %d", counts[0]["core.patterns_pruned_stat"], counts[0]["core.erec_prunes"])
}
