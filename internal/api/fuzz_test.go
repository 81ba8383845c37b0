package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"
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
