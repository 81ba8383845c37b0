package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/recurpat/rp/internal/api"
)

// mineKey is one (dataset, thresholds) key and its expected output.
type mineKey struct {
	class string
	db    string // a preloaded database's name, or
	fp    string // a registered dataset's fingerprint
	t     thresholds
	kind  string // keys of one kind do identical work
	want  digest
	count int
}

// request renders the key as a /v1/mine body.
func (k mineKey) request(par, maxLen int, stats bool) ([]byte, error) {
	return json.Marshal(api.MineRequest{
		V: api.Version, DB: k.db, Dataset: k.fp,
		Per: k.t.Per, MinPSPercent: k.t.MinPSPercent, MinRec: k.t.MinRec,
		MaxLen: maxLen, Parallelism: par, CollectStats: stats,
	})
}

// mineOnce posts one mine and checks the reply: status 200, cached as
// expected, and the pattern list equal to the key's reference. The
// exchange comes back whenever a reply arrived, so its latency counts
// even when the check fails.
func mineOnce(hc *http.Client, url string, body []byte, k mineKey, wantCached bool) (exchange, *mineReply, error) {
	ex, err := post(hc, url+"/v1/mine", "application/json", body)
	if err != nil {
		return ex, nil, err
	}
	if ex.status != http.StatusOK {
		return ex, nil, fmt.Errorf("status %d: %.200s", ex.status, ex.body)
	}
	var r mineReply
	if err := json.Unmarshal(ex.body, &r); err != nil {
		return ex, nil, fmt.Errorf("decoding reply: %w", err)
	}
	if r.Cached != wantCached {
		return ex, &r, fmt.Errorf("reply cached=%v, want %v", r.Cached, wantCached)
	}
	return ex, &r, r.check(k.want, k.count)
}

// uploadReply is the part of a POST /v1/datasets reply the benchmark reads.
type uploadReply struct {
	Fingerprint  string  `json:"fingerprint"`
	Transactions int     `json:"transactions"`
	IngestMS     float64 `json:"ingestMS"`
}

// upload registers a dataset body. The exchange comes back whenever a
// reply arrived.
func upload(hc *http.Client, url string, body []byte) (exchange, uploadReply, error) {
	var r uploadReply
	ex, err := post(hc, url+"/v1/datasets", "application/octet-stream", body)
	if err != nil {
		return ex, r, err
	}
	if ex.status != http.StatusCreated {
		return ex, r, fmt.Errorf("status %d: %.200s", ex.status, ex.body)
	}
	if err := json.Unmarshal(ex.body, &r); err != nil {
		return ex, r, fmt.Errorf("decoding reply: %w", err)
	}
	return ex, r, nil
}
