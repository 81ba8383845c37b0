package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// stubPeer is an httptest peer speaking the /v1/shard/mine wire protocol
// over api + core directly — the protocol contract the real rpserved
// handler also implements. failFirst makes the first N requests 500 to
// exercise retries. The propagated request ID is captured for assertions.
type stubPeer struct {
	db        *tsdb.DB
	requests  atomic.Int64
	failFirst int64
	srv       *httptest.Server

	mu         sync.Mutex
	lastHeader string // X-Request-Id of the last shard request
	lastBodyID string
}

func newStubPeer(t *testing.T, db *tsdb.DB) *stubPeer {
	t.Helper()
	p := &stubPeer{db: db}
	p.srv = httptest.NewServer(http.HandlerFunc(p.handle))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *stubPeer) handle(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/stats" {
		_ = json.NewEncoder(w).Encode(map[string]any{"draining": false, "peer": p.srv.URL})
		return
	}
	n := p.requests.Add(1)
	if n <= p.failFirst {
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: "injected peer failure"})
		return
	}
	req, err := api.DecodeShardMineRequest(r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: err.Error()})
		return
	}
	if want := fmt.Sprintf("%016x", p.db.Fingerprint()); req.Fingerprint != want {
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: "no dataset with fingerprint " + req.Fingerprint})
		return
	}
	p.mu.Lock()
	p.lastHeader = r.Header.Get("X-Request-Id")
	p.lastBodyID = req.RequestID
	p.mu.Unlock()
	o, err := req.ToCoreOptions(p.db.Len())
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: err.Error()})
		return
	}
	o.Trace = obs.NewTrace()
	res, err := core.MineShardContext(r.Context(), p.db, o,
		core.ShardSpec{Index: req.Shard, Count: req.Shards})
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: err.Error()})
		return
	}
	resp := api.ShardMineResponse{
		V:           api.Version,
		Fingerprint: req.Fingerprint,
		Shard:       req.Shard,
		Shards:      req.Shards,
		Count:       len(res.Patterns),
		Patterns:    api.PatternsFromCore(p.db, res.Patterns),
		Stats:       &res.Stats,
	}
	for _, st := range o.Trace.Report().Phases {
		if st.Nanos > 0 || st.Count > 0 {
			resp.Phases = append(resp.Phases, st)
		}
	}
	_ = json.NewEncoder(w).Encode(resp)
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Error("want error for empty peer set")
	}
	if _, err := NewClient(ClientConfig{Peers: []string{""}}); err == nil {
		t.Error("want error for blank peer URL")
	}
	c, err := NewClient(ClientConfig{Peers: []string{"http://b:1/", "http://a:1", "http://a:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Peers(); len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:1" {
		t.Errorf("peers not deduplicated/sorted/trimmed: %v", got)
	}
}

// TestClientRemoteEquivalence mines through two real HTTP stub peers and
// pins the result against the single-box mine, and the 2/1 split of its 3
// tasks over the 2 peers.
func TestClientRemoteEquivalence(t *testing.T) {
	db := testDB(11, 10, 50, 0.4)
	p1, p2 := newStubPeer(t, db), newStubPeer(t, db)
	client, err := NewClient(ClientConfig{Peers: []string{p1.srv.URL, p2.srv.URL}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	o := core.Options{Per: 4, MinPS: 2, MinRec: 1, CollectStats: true}
	want, err := core.MineContext(context.Background(), db, o)
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{Count: 3, Exec: client}
	got, err := c.Mine(context.Background(), db, o)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("remote scatter diverged from single-box (%d vs %d patterns)",
			len(got.Patterns), len(want.Patterns))
	}
	if got.Stats.PatternsExamined != want.Stats.PatternsExamined {
		t.Errorf("examined = %d, want %d", got.Stats.PatternsExamined, want.Stats.PatternsExamined)
	}
	var success int64
	for _, ps := range client.Stats() {
		success += ps.Success
		if ps.Failure != 0 {
			t.Errorf("peer %s recorded %d failures", ps.URL, ps.Failure)
		}
	}
	if success != 3 {
		t.Errorf("success counters sum to %d, want 3", success)
	}
	// Tasks 0 and 2 home on sorted peer FP mod 2, task 1 on the other.
	byURL := map[string]int64{p1.srv.URL: p1.requests.Load(), p2.srv.URL: p2.requests.Load()}
	first := client.Peers()[db.Fingerprint()%2]
	for u, n := range byURL {
		want := int64(1)
		if u == first {
			want = 2
		}
		if n != want {
			t.Errorf("peer %s served %d requests, want %d (split %v)", u, n, want, byURL)
		}
	}
}

// TestClientRetriesFailover exercises retry-with-backoff onto the next
// peer when the home peer errors. With 2 tasks over 2 peers exactly one
// task homes on the always-failing peer: it fails there once and its one
// retry lands on the healthy peer.
func TestClientRetriesFailover(t *testing.T) {
	db := testDB(13, 8, 40, 0.4)
	bad, good := newStubPeer(t, db), newStubPeer(t, db)
	bad.failFirst = 1 << 30 // always fails
	client, err := NewClient(ClientConfig{
		Peers:   []string{bad.srv.URL, good.srv.URL},
		Retries: 3,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := core.Options{Per: 4, MinPS: 2, MinRec: 1}
	want, err := core.MineContext(context.Background(), db, o)
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{Count: 2, Exec: client}
	got, err := c.Mine(context.Background(), db, o)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("failover scatter diverged from single-box")
	}
	var retries, failures int64
	for _, ps := range client.Stats() {
		retries += ps.Retries
		failures += ps.Failure
	}
	if n := bad.requests.Load(); n != 1 {
		t.Errorf("failing peer saw %d requests, want 1", n)
	}
	if n := good.requests.Load(); n != 2 {
		t.Errorf("healthy peer saw %d requests, want 2", n)
	}
	if failures != 1 || retries != 1 {
		t.Errorf("failures = %d, retries = %d, want 1 and 1", failures, retries)
	}
}

func TestClientExhaustedRetries(t *testing.T) {
	db := testDB(13, 8, 40, 0.4)
	bad := newStubPeer(t, db)
	bad.failFirst = 1 << 30
	client, err := NewClient(ClientConfig{
		Peers:   []string{bad.srv.URL},
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Execute(context.Background(), db, core.Options{Per: 4, MinPS: 2, MinRec: 1},
		Task{Index: 0, Count: 1, FP: db.Fingerprint()})
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if !strings.Contains(err.Error(), "3 attempts failed") {
		t.Errorf("error does not report attempt count: %v", err)
	}
	if !strings.Contains(err.Error(), "injected peer failure") {
		t.Errorf("error lost the peer's message: %v", err)
	}
	if got := bad.requests.Load(); got != 3 {
		t.Errorf("peer saw %d requests, want 3 (1 + 2 retries)", got)
	}
}

// TestClientPropagatesTraceContext drives a traced scatter through the
// client and checks trace context in both directions: the coordinator's
// request ID reaches the peer as header and body, and the peer's phase
// reports come back into the per-peer phase counters.
func TestClientPropagatesTraceContext(t *testing.T) {
	db := testDB(29, 10, 50, 0.4)
	peer := newStubPeer(t, db)
	client, err := NewClient(ClientConfig{Peers: []string{peer.srv.URL}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	o := core.Options{Per: 4, MinPS: 2, MinRec: 1, Trace: obs.NewTrace()}
	ctx := obs.WithRequestID(context.Background(), "req-42")

	c := &Coordinator{Count: 2, Exec: client}
	if _, err := c.Mine(ctx, db, o); err != nil {
		t.Fatal(err)
	}
	peer.mu.Lock()
	header, bodyID := peer.lastHeader, peer.lastBodyID
	peer.mu.Unlock()
	if header != "req-42" || bodyID != "req-42" {
		t.Errorf("request ID did not propagate: header=%q body=%q, want req-42", header, bodyID)
	}

	// The peers' phase reports feed the per-peer phase counters.
	stats := client.Stats()
	if len(stats) != 1 || len(stats[0].PhaseSeconds) == 0 {
		t.Fatalf("PhaseSeconds empty after traced tasks: %+v", stats)
	}
	if stats[0].PhaseSeconds[obs.PhaseMine.String()] <= 0 {
		t.Errorf("mine phase seconds = %v, want > 0", stats[0].PhaseSeconds)
	}

	// A task without a request ID on its context sends none.
	if _, err := client.Execute(context.Background(), db, core.Options{Per: 4, MinPS: 2, MinRec: 1},
		Task{Index: 0, Count: 1, FP: db.Fingerprint()}); err != nil {
		t.Fatal(err)
	}
	peer.mu.Lock()
	header, bodyID = peer.lastHeader, peer.lastBodyID
	peer.mu.Unlock()
	if header != "" || bodyID != "" {
		t.Errorf("request without an ID leaked trace context: header=%q body=%q", header, bodyID)
	}
}

// TestFetchStats covers the fleet fan-out: every peer gets one entry in
// sorted order, and a dead peer degrades to an error entry rather than
// failing the fetch.
func TestFetchStats(t *testing.T) {
	db := testDB(31, 6, 30, 0.5)
	alive := newStubPeer(t, db)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	client, err := NewClient(ClientConfig{Peers: []string{alive.srv.URL, deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	bodies := client.FetchStats(context.Background())
	if len(bodies) != 2 {
		t.Fatalf("FetchStats returned %d entries, want 2", len(bodies))
	}
	wantOrder := client.Peers()
	for i, b := range bodies {
		if b.URL != wantOrder[i] {
			t.Errorf("entry %d is %s, want sorted order %v", i, b.URL, wantOrder)
		}
		switch b.URL {
		case alive.srv.URL:
			if b.Err != nil || !strings.Contains(string(b.Body), "draining") {
				t.Errorf("live peer entry: err=%v body=%q", b.Err, b.Body)
			}
		case deadURL:
			if b.Err == nil {
				t.Error("dead peer fetch reported no error")
			}
		}
	}
}

func TestClientRejectsWrongFingerprint(t *testing.T) {
	db := testDB(19, 6, 30, 0.5)
	other := testDB(23, 6, 30, 0.5)
	peer := newStubPeer(t, other) // peer holds a different database
	client, err := NewClient(ClientConfig{Peers: []string{peer.srv.URL}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Execute(context.Background(), db, core.Options{Per: 4, MinPS: 2, MinRec: 1},
		Task{Index: 0, Count: 1, FP: db.Fingerprint()})
	if err == nil {
		t.Fatal("want error when the peer does not hold the fingerprint")
	}
	if !strings.Contains(err.Error(), "no dataset with fingerprint") {
		t.Errorf("unexpected error: %v", err)
	}
}
