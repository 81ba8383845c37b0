package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

// requestBodies seeds the decoder fuzzers: the request bodies of
// api_test.go, accepted and refused alike.
var requestBodies = []string{
	`{"db":"shop","per":10}`,
	`{"v":1,"db":"shop","per":10}`,
	`{"v":2,"db":"shop","per":10}`,
	`{"v":99,"per":10}`,
	`{"v":-1,"per":10}`,
	`{"per":10,"bogus":true}`,
	`{"per":10}{"per":11}`,
	`{"v":1,"fingerprint":"00000000deadbeef","per":360,"minPS":4,"shard":1,"shards":3,"itemOrder":"lex","disableErecPruning":true}`,
	`{"v":3,"per":1,"shard":0,"shards":1}`,
	`{"v":1,"fingerprint":"00000000deadbeef","per":360,"minPS":4,"shard":0,"shards":2}`,
	`{"v":1,"per":360,"minPSPercent":10,"maxLen":3,"minRec":2,"collectStats":true,"requestID":"r-1","trace":true}`,
}

// checkWire holds an accepted request to the wire contract: it re-encodes
// and decodes to an equal value, and resolving its options either fails
// or yields options that pass core's validation.
func checkWire[T any](t *testing.T, req *T, decode func(io.Reader) (*T, error), mine *MineRequest) {
	t.Helper()
	enc, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("re-encoding %+v: %v", req, err)
	}
	back, err := decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decoding the re-encoded %s: %v", enc, err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", back, req)
	}
	for _, n := range []int{0, 1, 1000, math.MaxInt32} {
		o, err := mine.ToCoreOptions(n)
		if err != nil {
			continue
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("ToCoreOptions(%d) returned options that fail Validate: %v (%+v)", n, err, o)
		}
	}
}

func FuzzDecodeMineRequest(f *testing.F) {
	for _, b := range requestBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeMineRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		checkWire(t, req, DecodeMineRequest, req)
	})
}

func FuzzDecodeShardMineRequest(f *testing.F) {
	for _, b := range requestBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeShardMineRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		checkWire(t, req, DecodeShardMineRequest, &req.MineRequest)
	})
}

// responseBodies seeds FuzzDecodeShardMineResponse: the shard response
// bodies of api_test.go, accepted and refused alike, plus one carrying
// patterns, stats, phases and a timeline.
var responseBodies = []string{
	`{"v":1,"fingerprint":"00000000000000aa","shard":0,"shards":2,"count":0,"miningMS":1.5,"patterns":[]}`,
	`{"v":2,"fingerprint":"0","shard":0,"shards":1}`,
	`{"v":1,"fingerprint":"00000000deadbeef","shard":1,"shards":3,"count":0,"miningMS":0,"patterns":null,"phases":[{"phase":"mine","nanos":1200,"count":2,"unit":"tasks"}],"elapsedNS":4500,"timeline":{"spans":[{"phase":"mine","startNS":10,"durNS":900}],"cap":8}}`,
	`{"v":1,"fingerprint":"00000000deadbeef","shard":0,"shards":2,"count":2,"miningMS":3.25,"patterns":[{"items":["a","b"],"support":4,"recurrence":2,"intervals":[{"start":1,"end":5,"ps":3},{"start":9,"end":12,"ps":2}]},{"items":["zz"],"support":1,"recurrence":1,"intervals":[]}],"stats":{"candidateItems":3}}`,
}

func FuzzDecodeShardMineResponse(f *testing.F) {
	for _, b := range responseBodies {
		f.Add([]byte(b))
	}
	dict := tsdb.NewBuilder()
	for _, name := range []string{"a", "b", "c"} {
		dict.Add(name, 1)
	}
	db := dict.Build()
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := DecodeShardMineResponse(bytes.NewReader(body))
		if err != nil {
			return
		}
		// An accepted response re-encodes to bytes that decode to a value
		// encoding to the same bytes: JSON cannot tell an empty omitempty
		// slice from an absent one, so equality is judged on the wire.
		enc, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", resp, err)
		}
		back, err := DecodeShardMineResponse(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoding the re-encoded %s: %v", enc, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", back, err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the response:\n got %s\nwant %s", again, enc)
		}
		ps, err := PatternsToCore(db, resp.Patterns)
		if err != nil {
			return
		}
		if len(ps) != len(resp.Patterns) {
			t.Fatalf("PatternsToCore returned %d patterns for %d wire patterns", len(ps), len(resp.Patterns))
		}
		for i, p := range ps {
			for j, id := range p.Items {
				if name := db.Dict.Name(id); name != resp.Patterns[i].Items[j] {
					t.Fatalf("pattern %d item %d: %q came back as %q", i, j, resp.Patterns[i].Items[j], name)
				}
			}
		}
	})
}
