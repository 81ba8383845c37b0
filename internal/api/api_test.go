package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

func TestDecodeMineRequestVersions(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
		vErr bool
	}{
		{"absent v is v1", `{"db":"shop","per":10}`, true, false},
		{"explicit v1", `{"v":1,"db":"shop","per":10}`, true, false},
		{"future version", `{"v":2,"db":"shop","per":10}`, false, true},
		{"far future version", `{"v":99,"per":10}`, false, true},
		{"negative version", `{"v":-1,"per":10}`, false, false},
		{"unknown field", `{"per":10,"bogus":true}`, false, false},
		{"trailing data", `{"per":10}{"per":11}`, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := DecodeMineRequest(strings.NewReader(c.body))
			if c.ok {
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if req.Per != 10 {
					t.Errorf("Per = %d, want 10", req.Per)
				}
				return
			}
			if err == nil {
				t.Fatal("want decode error")
			}
			var ve *VersionError
			if got := errors.As(err, &ve); got != c.vErr {
				t.Errorf("VersionError = %v (err %v), want %v", got, err, c.vErr)
			}
		})
	}
}

func TestDecodeShardMineRequest(t *testing.T) {
	req, err := DecodeShardMineRequest(strings.NewReader(
		`{"v":1,"fingerprint":"00000000deadbeef","per":360,"minPS":4,"shard":1,"shards":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Shard != 1 || req.Shards != 3 || req.Fingerprint != "00000000deadbeef" {
		t.Errorf("task fields = %d/%d %q", req.Shard, req.Shards, req.Fingerprint)
	}
	if _, err := DecodeShardMineRequest(strings.NewReader(`{"v":3,"per":1,"shard":0,"shards":1}`)); err == nil {
		t.Error("want version error for v3 shard request")
	}
}

// TestShardTraceContextRoundTrip covers the v1 trace-context additions:
// the optional request ID on the request and the phase report on the
// response survive a strict-decode round trip, and their absence decodes
// to the zero values (the pre-tracing behaviour, which is what makes them
// same-version additions).
func TestShardTraceContextRoundTrip(t *testing.T) {
	req := ShardMineRequest{
		MineRequest: MineRequest{V: Version, Per: 360, MinPS: 4},
		Shard:       1, Shards: 3,
		Fingerprint: "00000000deadbeef",
		RequestID:   "0a1b2c3d-7",
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeShardMineRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.RequestID != "0a1b2c3d-7" {
		t.Errorf("trace context lost in decode: id=%q", got.RequestID)
	}
	// A pre-tracing coordinator's request still decodes.
	old, err := DecodeShardMineRequest(strings.NewReader(
		`{"v":1,"fingerprint":"00000000deadbeef","per":360,"minPS":4,"shard":0,"shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if old.RequestID != "" {
		t.Errorf("absent trace context decoded non-zero: id=%q", old.RequestID)
	}

	resp := ShardMineResponse{
		V:           Version,
		Fingerprint: "00000000deadbeef",
		Shard:       1, Shards: 3,
		Phases: []obs.PhaseStat{{Phase: "mine", Nanos: 1200, Count: 2, Unit: "tasks"}},
	}
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	rt, err := DecodeShardMineResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Phases) != 1 || rt.Phases[0].Phase != "mine" {
		t.Errorf("phase report lost in decode: %+v", rt)
	}
	// A pre-tracing peer's response still decodes, with no phases.
	bare, err := DecodeShardMineResponse(strings.NewReader(
		`{"v":1,"fingerprint":"00000000000000aa","shard":0,"shards":2,"count":0,"miningMS":1.5,"patterns":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Phases != nil {
		t.Errorf("absent phase report decoded non-zero: %+v", bare)
	}
}

// TestDecodeRejectsRetiredFields pins what an older client meets: a body
// that still carries a field the wire no longer has (the ablation knobs
// and the span-timeline exchange) fails the strict decode with an error
// that names the field, rather than mining under options the server would
// ignore.
func TestDecodeRejectsRetiredFields(t *testing.T) {
	const task = `"v":1,"fingerprint":"00000000deadbeef","per":360,"minPS":4,"shard":0,"shards":2`
	const result = `"v":1,"fingerprint":"00000000deadbeef","shard":0,"shards":2,"count":0,"miningMS":1,"patterns":[]`
	mine := func(r io.Reader) error { _, err := DecodeMineRequest(r); return err }
	shardReq := func(r io.Reader) error { _, err := DecodeShardMineRequest(r); return err }
	shardResp := func(r io.Reader) error { _, err := DecodeShardMineResponse(r); return err }
	for _, c := range []struct {
		field, body string
		decode      func(io.Reader) error
	}{
		{"itemOrder", `{"per":10,"itemOrder":"lex"}`, mine},
		{"disableErecPruning", `{"per":10,"disableErecPruning":true}`, mine},
		{"itemOrder", `{` + task + `,"itemOrder":"support"}`, shardReq},
		{"disableErecPruning", `{` + task + `,"disableErecPruning":false}`, shardReq},
		{"trace", `{` + task + `,"trace":true}`, shardReq},
		{"timeline", `{` + result + `,"timeline":{"spans":[],"cap":8}}`, shardResp},
		{"elapsedNS", `{` + result + `,"elapsedNS":4500}`, shardResp},
	} {
		err := c.decode(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s: body %s decoded", c.field, c.body)
			continue
		}
		if !strings.Contains(err.Error(), `"`+c.field+`"`) {
			t.Errorf("%s: error %q does not name the field", c.field, err)
		}
	}
}

func TestDecodeShardMineResponseVersion(t *testing.T) {
	if _, err := DecodeShardMineResponse(strings.NewReader(`{"v":2,"fingerprint":"0","shard":0,"shards":1}`)); err == nil {
		t.Error("want version error for v2 shard response")
	}
	resp, err := DecodeShardMineResponse(strings.NewReader(`{"v":1,"fingerprint":"00000000000000aa","shard":0,"shards":2,"count":0,"miningMS":1.5,"patterns":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Shards != 2 {
		t.Errorf("Shards = %d, want 2", resp.Shards)
	}
}

func TestToCoreOptions(t *testing.T) {
	req := MineRequest{Per: 360, MinPSPercent: 10, MaxLen: 3}
	o, err := req.ToCoreOptions(200)
	if err != nil {
		t.Fatal(err)
	}
	if o.MinPS != 20 {
		t.Errorf("MinPS = %d, want 20 (10%% of 200)", o.MinPS)
	}
	if o.MinRec != 1 {
		t.Errorf("MinRec = %d, want defaulted 1", o.MinRec)
	}

	// Absolute minPS wins over the percentage.
	req = MineRequest{Per: 360, MinPS: 7, MinPSPercent: 50}
	if o, err = req.ToCoreOptions(200); err != nil || o.MinPS != 7 {
		t.Errorf("MinPS = %d (err %v), want absolute 7", o.MinPS, err)
	}

	// Validation lives here: core's error text, verbatim.
	if _, err = (&MineRequest{Per: 0, MinPS: 1}).ToCoreOptions(10); err == nil || !strings.Contains(err.Error(), "Per must be positive") {
		t.Errorf("want core validation error, got %v", err)
	}
}

func TestFromCoreOptionsRoundTrip(t *testing.T) {
	for _, o := range []core.Options{
		{Per: 360, MinPS: 20, MinRec: 2},
		{Per: 5, MinPS: 1, MinRec: 1, MaxLen: 4, Parallelism: 8, CollectStats: true},
	} {
		req := FromCoreOptions(o)
		if req.V != Version {
			t.Errorf("FromCoreOptions did not stamp v%d: %+v", Version, req)
		}
		back, err := req.ToCoreOptions(1000)
		if err != nil {
			t.Fatalf("round-trip of %+v: %v", o, err)
		}
		if back != o {
			t.Errorf("options round-trip diverged:\n sent %+v\n got  %+v", o, back)
		}
	}
}

func TestPatternConvertersRoundTrip(t *testing.T) {
	b := tsdb.NewBuilder()
	for ts := int64(1); ts <= 6; ts++ {
		b.Add("bread", ts)
		b.Add("jam", ts)
	}
	db := b.Build()
	in := []core.Pattern{
		{
			Items:      mustIDs(t, db, "bread", "jam"),
			Support:    6,
			Recurrence: 1,
			Intervals:  []core.Interval{{Start: 1, End: 6, PS: 6}},
		},
	}
	wire := PatternsFromCore(db, in)
	if len(wire) != 1 || wire[0].Items[0] != "bread" || wire[0].Intervals[0].PS != 6 {
		t.Fatalf("wire form wrong: %+v", wire)
	}
	back, err := PatternsToCore(db, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || len(back[0].Items) != 2 || back[0].Items[0] != in[0].Items[0] {
		t.Fatalf("round-trip diverged: %+v vs %+v", back, in)
	}

	// An item the local dictionary has never seen means the databases
	// differ; the converter must refuse, not invent an ID.
	if _, err := PatternsToCore(db, []Pattern{{Items: []string{"anchovies"}}}); err == nil {
		t.Error("want error for unknown item name")
	}
}

func mustIDs(t *testing.T, db *tsdb.DB, names ...string) []tsdb.ItemID {
	t.Helper()
	ids := make([]tsdb.ItemID, len(names))
	for i, n := range names {
		id, ok := db.Dict.Lookup(n)
		if !ok {
			t.Fatalf("item %q not in dictionary", n)
		}
		ids[i] = id
	}
	return ids
}
