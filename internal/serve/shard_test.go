package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// postShard sends a body to POST /v1/shard/mine.
func postShard(t *testing.T, base, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/shard/mine", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, m
}

// TestShardMineEndpoint exercises the peer half of scatter-gather: the
// shard tasks of a 3-way plan, addressed by fingerprint alone, must
// partition the full mine's pattern set.
func TestShardMineEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	fp := fmt.Sprintf("%016x", testDB().Fingerprint())

	status, full := postMine(t, hs.URL, `{"db":"shop","per":4,"minPS":3,"minRec":1}`)
	if status != http.StatusOK {
		t.Fatalf("full mine: status %d, body %v", status, full)
	}

	var shardTotal float64
	for i := 0; i < 3; i++ {
		status, m := postShard(t, hs.URL,
			fmt.Sprintf(`{"v":1,"fingerprint":%q,"per":4,"minPS":3,"minRec":1,"shard":%d,"shards":3}`, fp, i))
		if status != http.StatusOK {
			t.Fatalf("shard %d: status %d, body %v", i, status, m)
		}
		if m["fingerprint"] != fp {
			t.Errorf("shard %d echoed fingerprint %v, want %s", i, m["fingerprint"], fp)
		}
		if m["shard"].(float64) != float64(i) || m["shards"].(float64) != 3 {
			t.Errorf("shard %d echoed task %v/%v", i, m["shard"], m["shards"])
		}
		shardTotal += m["count"].(float64)
	}
	if shardTotal != full["count"].(float64) {
		t.Errorf("shard counts sum to %v, full mine found %v", shardTotal, full["count"])
	}

	stats := getStats(t, hs.URL)
	if got := metric(t, stats, "shardRequests"); got != 3 {
		t.Errorf("shardRequests = %v, want 3", got)
	}
	if got := metric(t, stats, "shardMined"); got != 3 {
		t.Errorf("shardMined = %v, want 3", got)
	}
}

// TestShardMineJournalsPropagatedID pins the peer half of the
// trace-context contract: a task is journalled under the coordinator's
// propagated ID, a task without one under an ID of its own, and the
// response carries the phase report the coordinator's per-peer metrics
// read.
func TestShardMineJournalsPropagatedID(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	fp := fmt.Sprintf("%016x", testDB().Fingerprint())

	for i, id := range []string{"", "coord-7"} {
		status, m := postShard(t, hs.URL,
			fmt.Sprintf(`{"v":1,"fingerprint":%q,"per":4,"minPS":3,"minRec":1,"shard":%d,"shards":2,"requestID":%q}`, fp, i, id))
		if status != http.StatusOK {
			t.Fatalf("shard task %d: status %d, body %v", i, status, m)
		}
		if phases, _ := m["phases"].([]any); len(phases) == 0 {
			t.Errorf("shard task %d: response lost the phase report", i)
		}
	}

	_, body := getBody(t, hs.URL+"/debug/requests?format=json")
	var jr struct {
		Recent []*RequestEntry `json:"recent"`
	}
	decodeJSON(t, body, &jr)
	byID := map[string]*RequestEntry{}
	for _, e := range jr.Recent {
		byID[e.ID] = e
	}
	e := byID["coord-7"]
	if e == nil {
		t.Fatalf("journal has no entry under the propagated ID: %v", slowIDs(jr.Recent))
	}
	if e.Outcome != "shard-ok" || !strings.Contains(e.Opts, "shard=1/2") {
		t.Errorf("journal entry = outcome %q opts %q, want shard-ok with shard=1/2", e.Outcome, e.Opts)
	}
	// The task without a propagated ID minted its own and is journalled too.
	found := false
	for _, e := range jr.Recent {
		if e.ID != "coord-7" && e.ID != "" && strings.Contains(e.Opts, "shard=0/2") {
			found = true
		}
	}
	if !found {
		t.Error("shard task without a propagated ID missing from the journal")
	}
}

// TestWireBodiesCompact pins the response format: a /v1/mine and a
// /v1/shard/mine body is encoding/json's compact encoding of the response
// and a newline, one line with no indentation.
func TestWireBodiesCompact(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	fp := fmt.Sprintf("%016x", testDB().Fingerprint())
	for _, tc := range []struct {
		path, body string
		resp       any
	}{
		{"/v1/mine", `{"db":"shop","per":4,"minPS":3,"minRec":1,"collectStats":true}`, new(api.MineResponse)},
		{"/v1/shard/mine", fmt.Sprintf(`{"v":1,"fingerprint":%q,"per":4,"minPS":3,"minRec":1,"shard":0,"shards":2,"collectStats":true}`, fp), new(api.ShardMineResponse)},
	} {
		resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", tc.path, resp.StatusCode, got)
		}
		if err := json.Unmarshal(got, tc.resp); err != nil {
			t.Fatalf("%s: decoding: %v", tc.path, err)
		}
		want, err := json.Marshal(tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s body is not json.Marshal of its response plus a newline:\n got %q\nwant %q", tc.path, got, want)
		}
	}
}

func TestShardMineEndpointErrors(t *testing.T) {
	s, hs := newTestServer(t, Config{}, nil)
	fp := fmt.Sprintf("%016x", testDB().Fingerprint())

	// Invalid shard spec.
	if status, _ := postShard(t, hs.URL, `{"per":4,"minPS":3,"shard":3,"shards":3,"db":"shop"}`); status != http.StatusBadRequest {
		t.Errorf("out-of-range shard index: status %d, want 400", status)
	}
	// Unknown fingerprint.
	if status, m := postShard(t, hs.URL, `{"per":4,"minPS":3,"shard":0,"shards":2,"fingerprint":"00000000000000ff"}`); status != http.StatusNotFound {
		t.Errorf("unknown fingerprint: status %d, body %v, want 404", status, m)
	}
	// Named database whose bytes don't match the pinned fingerprint.
	if status, m := postShard(t, hs.URL, `{"per":4,"minPS":3,"shard":0,"shards":2,"db":"shop","fingerprint":"00000000000000ff"}`); status != http.StatusConflict {
		t.Errorf("fingerprint mismatch: status %d, body %v, want 409", status, m)
	}
	// No addressing at all.
	if status, _ := postShard(t, hs.URL, `{"per":4,"minPS":3,"shard":0,"shards":2}`); status != http.StatusBadRequest {
		t.Errorf("unaddressed task: status %d, want 400", status)
	}
	// Future schema version.
	if status, m := postShard(t, hs.URL, fmt.Sprintf(`{"v":9,"fingerprint":%q,"per":4,"minPS":3,"shard":0,"shards":2}`, fp)); status != http.StatusBadRequest {
		t.Errorf("future version: status %d, body %v, want 400", status, m)
	} else if msg, _ := m["error"].(string); !strings.Contains(msg, "unsupported schema version") {
		t.Errorf("version error message %q does not name the version problem", msg)
	}
	// Draining servers refuse shard tasks like they refuse mines.
	s.BeginDrain()
	if status, _ := postShard(t, hs.URL, fmt.Sprintf(`{"fingerprint":%q,"per":4,"minPS":3,"shard":0,"shards":2}`, fp)); status != http.StatusServiceUnavailable {
		t.Errorf("draining: status %d, want 503", status)
	}
}

// TestShardMineBodyLimit pins the shard endpoint's answer to an
// over-MaxBody body to /v1/mine's: 413 naming the limit, journalled and
// logged as body-too-large.
func TestShardMineBodyLimit(t *testing.T) {
	var logs syncBuffer
	_, hs := newTestServer(t, Config{MaxBody: 64, Logger: obs.NewLogger(&logs, slog.LevelInfo)}, nil)

	status, m := postShard(t, hs.URL, strings.Repeat(" ", 256)+`{"db":"shop","per":4,"minPS":3,"shard":0,"shards":2}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized shard body: status %d, body %v, want 413", status, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "64-byte limit") {
		t.Errorf("error message %q does not name the limit", msg)
	}
	_, body := getBody(t, hs.URL+"/debug/requests?format=json")
	var jr struct {
		Recent []*RequestEntry `json:"recent"`
	}
	decodeJSON(t, body, &jr)
	if len(jr.Recent) != 1 || jr.Recent[0].Outcome != "body-too-large" || jr.Recent[0].Status != http.StatusRequestEntityTooLarge {
		t.Errorf("journal = %+v, want one body-too-large entry with status 413", jr.Recent)
	}
	waitFor(t, func() bool {
		return strings.Contains(logs.String(), "msg=shard-mine") && strings.Contains(logs.String(), "outcome=body-too-large")
	})
}

func TestMineRejectsFutureVersion(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	status, m := postMine(t, hs.URL, `{"v":2,"db":"shop","per":4,"minPS":3}`)
	if status != http.StatusBadRequest {
		t.Fatalf("v2 request: status %d, body %v, want 400", status, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "unsupported schema version 2") {
		t.Errorf("error message %q does not name the version problem", msg)
	}
}

// TestNewServerValidatesShards: a negative shard count or limit, or a
// shard count with no peers to scatter over, is a startup error naming the
// field, not a failure of every later mine or a silently ignored setting.
// A negative MaxQueue is the one accepted: it is a zero-length queue.
func TestNewServerValidatesShards(t *testing.T) {
	peers := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	for _, c := range []struct {
		name    string
		cfg     Config
		wantErr string // "" → NewServer must succeed
	}{
		{"no peers, no shards", Config{}, ""},
		{"peers, default shards", Config{Peers: peers}, ""},
		{"peers, 3 shards", Config{Peers: peers, Shards: 3}, ""},
		{"peers, negative shards", Config{Peers: peers, Shards: -1}, "Shards"},
		{"no peers, negative shards", Config{Shards: -1}, "Shards"},
		{"no peers, 3 shards", Config{Shards: 3}, "Peers"},
		{"negative max concurrent", Config{MaxConcurrent: -5}, "MaxConcurrent"},
		{"negative max parallelism", Config{MaxParallelism: -1}, "MaxParallelism"},
		{"negative mine timeout", Config{MineTimeout: -time.Second}, "MineTimeout"},
		{"negative cache size", Config{CacheSize: -1}, "CacheSize"},
		{"negative max body", Config{MaxBody: -1}, "MaxBody"},
		{"negative max upload", Config{MaxUpload: -1}, "MaxUpload"},
		{"negative registry bytes", Config{RegistryMaxBytes: -1}, "RegistryMaxBytes"},
		{"negative registry entries", Config{RegistryMaxEntries: -1}, "RegistryMaxEntries"},
		{"negative max queue", Config{MaxQueue: -1}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewServer(c.cfg, nil)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("NewServer: %v", err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("NewServer accepted %+v", c.cfg)
			case c.wantErr != "" && !strings.Contains(err.Error(), "Config."+c.wantErr):
				t.Fatalf("error %q does not name Config.%s", err, c.wantErr)
			}
		})
	}
}

// TestPeersModeCoordinator stands up two real peer servers and a
// coordinator configured with -peers semantics, and pins the gathered
// /v1/mine response against a single-box server over the same database.
func TestPeersModeCoordinator(t *testing.T) {
	db := testDB()
	newPeer := func() *httptest.Server {
		s, err := NewServer(Config{}, map[string]*tsdb.DB{"whatever": db})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		return hs
	}
	p1, p2 := newPeer(), newPeer()

	coord, err := NewServer(Config{Peers: []string{p1.URL, p2.URL}, Shards: 3},
		map[string]*tsdb.DB{"shop": db})
	if err != nil {
		t.Fatal(err)
	}
	chs := httptest.NewServer(coord.Handler())
	t.Cleanup(chs.Close)
	_, shs := newTestServer(t, Config{}, nil) // single-box reference

	body := `{"db":"shop","per":4,"minPS":3,"minRec":1,"collectStats":true}`
	status, got := postMine(t, chs.URL, body)
	if status != http.StatusOK {
		t.Fatalf("scattered mine: status %d, body %v", status, got)
	}
	if got["partial"] != nil {
		t.Errorf("healthy scatter marked partial: %v", got["partial"])
	}
	_, want := postMine(t, shs.URL, body)

	gp, _ := json.Marshal(got["patterns"])
	wp, _ := json.Marshal(want["patterns"])
	if string(gp) != string(wp) {
		t.Errorf("scattered patterns diverge from single-box:\n%s\nvs\n%s", gp, wp)
	}
	// Stats merge semantics: examined/pruned/candidates/depth match the
	// single-box run exactly; TreeNodes counts each shard's own truncated
	// initial tree, which together hold at least the full tree's nodes.
	gs := got["stats"].(map[string]any)
	ws := want["stats"].(map[string]any)
	for _, f := range []string{"PatternsExamined", "PatternsPruned", "CandidateItems", "MaxDepth"} {
		if gs[f] != ws[f] {
			t.Errorf("scattered stats field %s = %v, single-box %v", f, gs[f], ws[f])
		}
	}
	if gs["TreeNodes"].(float64) < ws["TreeNodes"].(float64) {
		t.Errorf("scattered TreeNodes %v below single-box %v", gs["TreeNodes"], ws["TreeNodes"])
	}

	// The per-peer counters surface in /v1/stats and /metrics.
	stats := getStats(t, chs.URL)
	peers, ok := stats["shardPeers"].([]any)
	if !ok || len(peers) != 2 {
		t.Fatalf("stats shardPeers = %v, want 2 entries", stats["shardPeers"])
	}
	var success float64
	for _, raw := range peers {
		success += raw.(map[string]any)["success"].(float64)
	}
	if success != 3 {
		t.Errorf("peer success counters sum to %v, want 3", success)
	}
	resp, err := http.Get(chs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prom, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "rpserved_shard_peer_success_total{peer=") {
		t.Error("metrics output lacks the per-peer shard counter family")
	}

	// A second identical request hits the coordinator's cache: no new
	// shard traffic.
	if status, m := postMine(t, chs.URL, body); status != http.StatusOK || m["cached"] != true {
		t.Errorf("repeat scattered mine not cached: status %d, cached=%v", status, m["cached"])
	}
}

// TestFleetTraceAndStats is the acceptance test for fleet-wide trace
// context: a mine scattered over two real peer servers is journalled once
// on the coordinator, and the peers' journals joined on its request ID
// hold every task of the plan exactly once, each with its own mine time.
// It also checks the per-peer per-phase metric and the fleet stats
// fan-out.
func TestFleetTraceAndStats(t *testing.T) {
	db := testDB()
	newPeer := func() *httptest.Server {
		// A deep queue so 16 concurrent tasks admit rather than shed
		// (sheds would just be retried, adding noise to the journals).
		s, err := NewServer(Config{MaxQueue: 64}, map[string]*tsdb.DB{"whatever": db})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		return hs
	}
	p1, p2 := newPeer(), newPeer()

	// 16 tasks over 2 peers: plan-order placement homes 8 on each.
	const shards = 16
	coord, err := NewServer(Config{Peers: []string{p1.URL, p2.URL}, Shards: shards},
		map[string]*tsdb.DB{"shop": db})
	if err != nil {
		t.Fatal(err)
	}
	chs := httptest.NewServer(coord.Handler())
	t.Cleanup(chs.Close)

	if status, m := postMine(t, chs.URL, `{"db":"shop","per":4,"minPS":3,"minRec":1}`); status != http.StatusOK {
		t.Fatalf("scattered mine: status %d, body %v", status, m)
	}

	_, body := getBody(t, chs.URL+"/debug/requests?format=json")
	var jr struct {
		Recent []*RequestEntry `json:"recent"`
	}
	decodeJSON(t, body, &jr)
	if len(jr.Recent) != 1 || jr.Recent[0].Outcome != "ok" {
		t.Fatalf("coordinator journal = %+v, want one served entry", jr.Recent)
	}
	reqID := jr.Recent[0].ID

	// Join the peers' journals on the coordinator's ID: every task of the
	// plan was served exactly once, and each row carries its own mine time.
	tasks := map[string]int{}
	for i, ps := range []*httptest.Server{p1, p2} {
		_, pbody := getBody(t, ps.URL+"/debug/requests?format=json")
		var pjr struct {
			Recent []*RequestEntry `json:"recent"`
		}
		decodeJSON(t, pbody, &pjr)
		served := 0
		for _, pe := range pjr.Recent {
			if pe.ID != reqID || pe.Outcome != "shard-ok" {
				continue
			}
			served++
			_, task, _ := strings.Cut(pe.Opts, ",shard=")
			tasks[task]++
			if pe.MineMS <= 0 {
				t.Errorf("peer %d task %s journalled mineMS %v, want > 0", i+1, task, pe.MineMS)
			}
		}
		if served == 0 {
			t.Errorf("peer %d journal has no served tasks under coordinator ID %s", i+1, reqID)
		}
	}
	for i := 0; i < shards; i++ {
		if task := fmt.Sprintf("%d/%d", i, shards); tasks[task] != 1 {
			t.Errorf("task %s journalled %d times across the peers, want 1", task, tasks[task])
		}
	}
	if len(tasks) != shards {
		t.Errorf("peers journalled %d distinct tasks under %s, want %d: %v", len(tasks), reqID, shards, tasks)
	}

	// The peers' phase reports surface as the per-peer per-phase metric.
	resp, prom := getBody(t, chs.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if !strings.Contains(prom, "rpserved_shard_peer_phase_seconds{peer=") {
		t.Error("metrics output lacks rpserved_shard_peer_phase_seconds")
	}

	// The fleet stats fan-out reaches both peers.
	resp, fleet := getBody(t, chs.URL+"/v1/fleet/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet stats: status %d body %s", resp.StatusCode, fleet)
	}
	var fs struct {
		Coordinator map[string]any `json:"coordinator"`
		Peers       []struct {
			URL   string          `json:"url"`
			Stats json.RawMessage `json:"stats"`
			Error string          `json:"error"`
		} `json:"peers"`
	}
	decodeJSON(t, fleet, &fs)
	if fs.Coordinator == nil || len(fs.Peers) != 2 {
		t.Fatalf("fleet stats shape: coordinator=%v, %d peers", fs.Coordinator != nil, len(fs.Peers))
	}
	for _, p := range fs.Peers {
		if p.Error != "" || len(p.Stats) == 0 {
			t.Errorf("peer %s fleet entry: error=%q stats bytes=%d", p.URL, p.Error, len(p.Stats))
		}
	}

	// A single-box server has no fleet to report on.
	_, shs := newTestServer(t, Config{}, nil)
	if resp, _ := getBody(t, shs.URL+"/v1/fleet/stats"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("single-box fleet stats: status %d, want 404", resp.StatusCode)
	}
}
