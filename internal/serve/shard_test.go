package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// TestCacheKeyIncludesItemOrder is the regression for the api gap this
// package used to have: itemOrder (and disableErecPruning) now travel the
// wire, so two requests differing only in those knobs must not share a
// cache entry.
func TestCacheKeyIncludesItemOrder(t *testing.T) {
	var mines atomic.Int64
	s, hs := newTestServer(t, Config{}, func(ctx context.Context, db *tsdb.DB, o core.Options) (*core.Result, error) {
		mines.Add(1)
		return core.MineContext(ctx, db, o)
	})
	_ = s

	base := `"db":"shop","per":4,"minPS":3,"minRec":1`
	for i, body := range []string{
		`{` + base + `}`,
		`{` + base + `,"itemOrder":"lex"}`,
		`{` + base + `,"disableErecPruning":true}`,
		`{` + base + `}`, // repeat of the first: must hit, not re-mine
	} {
		status, m := postMine(t, hs.URL, body)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d, body %v", i, status, m)
		}
	}
	if got := mines.Load(); got != 3 {
		t.Errorf("executed %d mines, want 3 (order and pruning variants must not share cache entries)", got)
	}
}

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

// TestShardMineTraceOptIn pins the peer half of the trace-context
// contract: a task that asks for tracing gets the recorded timeline and
// handling time back and is journalled under the coordinator's propagated
// ID; a task that doesn't stays exactly on the pre-tracing wire shape.
func TestShardMineTraceOptIn(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	fp := fmt.Sprintf("%016x", testDB().Fingerprint())

	// Untraced: phases travel (they feed the coordinator's metrics), but
	// no timeline and no handling time.
	status, m := postShard(t, hs.URL,
		fmt.Sprintf(`{"v":1,"fingerprint":%q,"per":4,"minPS":3,"minRec":1,"shard":0,"shards":2}`, fp))
	if status != http.StatusOK {
		t.Fatalf("untraced shard task: status %d, body %v", status, m)
	}
	if m["timeline"] != nil || m["elapsedNS"] != nil {
		t.Errorf("untraced response carries trace fields: timeline=%v elapsedNS=%v", m["timeline"], m["elapsedNS"])
	}
	if phases, _ := m["phases"].([]any); len(phases) == 0 {
		t.Error("untraced response lost the phase report")
	}

	// Traced, under a propagated coordinator ID.
	status, m = postShard(t, hs.URL,
		fmt.Sprintf(`{"v":1,"fingerprint":%q,"per":4,"minPS":3,"minRec":1,"shard":1,"shards":2,"requestID":"coord-7","trace":true}`, fp))
	if status != http.StatusOK {
		t.Fatalf("traced shard task: status %d, body %v", status, m)
	}
	tl, _ := m["timeline"].(map[string]any)
	if tl == nil {
		t.Fatal("traced response has no timeline")
	}
	if spans, _ := tl["spans"].([]any); len(spans) == 0 {
		t.Error("returned timeline retained no spans")
	}
	if ns, _ := m["elapsedNS"].(float64); ns <= 0 {
		t.Errorf("elapsedNS = %v, want > 0", m["elapsedNS"])
	}

	// The peer's journal joins on the propagated ID.
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
	if !e.HasTrace {
		t.Error("traced shard task journalled without a downloadable trace")
	}
	// The untraced task minted its own ID and is journalled too.
	found := false
	for _, e := range jr.Recent {
		if e.ID != "coord-7" && strings.Contains(e.Opts, "shard=0/2") {
			found = true
			if e.HasTrace {
				t.Error("untraced shard task retained a timeline")
			}
		}
	}
	if !found {
		t.Error("untraced shard task missing from the journal")
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
		{"/v1/shard/mine", fmt.Sprintf(`{"v":1,"fingerprint":%q,"per":4,"minPS":3,"minRec":1,"shard":0,"shards":2,"collectStats":true,"trace":true}`, fp), new(api.ShardMineResponse)},
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
	// single-box run exactly; TreeNodes overcounts by design (each shard
	// builds its own copy of the initial tree).
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

// TestFleetTraceAndStats is the acceptance test for fleet-wide tracing: a
// mine scattered over two real peer servers leaves ONE flight record on
// the coordinator — per-peer Perfetto lanes with the peers' own phase
// spans, joinable journals on both sides of every shard RPC, the per-peer
// per-phase metric, and the fleet stats fan-out.
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
	coord, err := NewServer(Config{Peers: []string{p1.URL, p2.URL}, Shards: 16},
		map[string]*tsdb.DB{"shop": db})
	if err != nil {
		t.Fatal(err)
	}
	chs := httptest.NewServer(coord.Handler())
	t.Cleanup(chs.Close)

	if status, m := postMine(t, chs.URL, `{"db":"shop","per":4,"minPS":3,"minRec":1}`); status != http.StatusOK {
		t.Fatalf("scattered mine: status %d, body %v", status, m)
	}

	// The coordinator journalled the request with a downloadable trace.
	_, body := getBody(t, chs.URL+"/debug/requests?format=json")
	var jr struct {
		Recent []*RequestEntry `json:"recent"`
	}
	decodeJSON(t, body, &jr)
	if len(jr.Recent) != 1 || !jr.Recent[0].HasTrace {
		t.Fatalf("coordinator journal = %+v, want one traced entry", jr.Recent)
	}
	reqID := jr.Recent[0].ID

	// The merged trace validates and carries one process track per peer.
	resp, trace := getBody(t, chs.URL+"/debug/requests/trace?id="+reqID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace download: status %d body %s", resp.StatusCode, trace)
	}
	if _, err := obs.ValidateTraceEvents(strings.NewReader(trace)); err != nil {
		t.Fatalf("merged fleet trace invalid: %v", err)
	}
	var f struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	decodeJSON(t, trace, &f)
	names := map[int]string{}
	spanNames := map[int]map[string]bool{}
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				names[ev.Pid], _ = ev.Args["name"].(string)
			}
		case "X":
			if spanNames[ev.Pid] == nil {
				spanNames[ev.Pid] = map[string]bool{}
			}
			spanNames[ev.Pid][ev.Name] = true
		}
	}
	hasPrefix := func(set map[string]bool, prefix string) bool {
		for n := range set {
			if strings.HasPrefix(n, prefix) {
				return true
			}
		}
		return false
	}
	if names[1] == "" || strings.HasPrefix(names[1], "peer ") {
		t.Errorf("pid 1 named %q, want the coordinator's own track", names[1])
	}
	// The coordinator lane keeps its per-task dispatch spans ("shard
	// shard=i/n"), one per scattered task.
	if !hasPrefix(spanNames[1], "shard") {
		t.Errorf("coordinator lane lacks its shard dispatch spans: %v", spanNames[1])
	}
	lanesFor := map[string]bool{}
	for pid, name := range names {
		if pid == 1 {
			continue
		}
		lanesFor[name] = true
		// Every peer lane carries the peer's own run: its admission wait
		// and its whole-task span, realigned onto the coordinator's clock.
		// (Per-item "mine" spans only appear on shards that drew items —
		// with 16 shards over this tiny dictionary most mine nothing.)
		if !spanNames[pid]["queue"] || !spanNames[pid]["total"] {
			t.Errorf("track %q lacks the peer's queue/total spans: %v", name, spanNames[pid])
		}
		if !hasPrefix(spanNames[pid], "mine") && !spanNames[pid]["scan"] {
			t.Errorf("track %q carries no phase spans at all: %v", name, spanNames[pid])
		}
	}
	for _, ps := range []*httptest.Server{p1, p2} {
		if !lanesFor["peer "+ps.URL] {
			t.Errorf("merged trace has no lane for peer %s (have %v)", ps.URL, names)
		}
	}

	// Both peers journalled their shard tasks under the coordinator's ID.
	for i, ps := range []*httptest.Server{p1, p2} {
		_, pbody := getBody(t, ps.URL+"/debug/requests?format=json")
		var pjr struct {
			Recent []*RequestEntry `json:"recent"`
		}
		decodeJSON(t, pbody, &pjr)
		served := 0
		for _, pe := range pjr.Recent {
			if pe.ID == reqID && pe.Outcome == "shard-ok" {
				served++
			}
		}
		// (Shed-and-retried attempts journal under the same ID too; at
		// least one task must have been served to completion here.)
		if served == 0 {
			t.Errorf("peer %d journal has no served tasks under coordinator ID %s", i+1, reqID)
		}
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
