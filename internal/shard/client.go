package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// ClientConfig tunes the scatter. The zero value of each field resolves
// to the documented default; NewClient rejects negative values.
type ClientConfig struct {
	// Peers are the base URLs of the rpserved peers ("http://host:port").
	// At least one is required; order, duplicates and trailing slashes do
	// not matter.
	Peers []string
	// Shards is the number of shard tasks each Mine plans. 0 → one per
	// distinct peer.
	Shards int
	// Retries is how many additional attempts a failed task gets, each on
	// the next peer of its failover sequence with exponential backoff in
	// between. 0 → 2.
	Retries int
	// Backoff is the delay before the first retry, doubling per retry.
	// 0 → 100ms.
	Backoff time.Duration
}

// attemptTimeout bounds one request to a peer, connection and body
// included; the request context still applies on top.
const attemptTimeout = 30 * time.Second

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff == 0 {
		c.Backoff = 100 * time.Millisecond
	}
	return c
}

// peerCounters is one peer's atomic outcome counters, exported through
// PeerStats for /metrics and /v1/stats.
type peerCounters struct {
	url     string
	success atomic.Int64
	failure atomic.Int64
	retries atomic.Int64
	// phaseNanos accumulates the peer-reported per-phase wall time of
	// successful tasks (ShardMineResponse.Phases), indexed by obs.Phase —
	// the raw material of rpserved_shard_peer_phase_seconds.
	phaseNanos [obs.NumPhases]atomic.Int64
}

// PeerStats is a point-in-time copy of one peer's counters.
type PeerStats struct {
	URL string `json:"url"`
	// Success and Failure count completed attempts against this peer.
	Success int64 `json:"success"`
	Failure int64 `json:"failure"`
	// Retries counts attempts that were re-dispatches of a previously
	// failed task.
	Retries int64 `json:"retries"`
	// Hedges always reads 0: the client sends one request per attempt.
	// It is kept only because the end-to-end benchmark decodes /v1/stats
	// into PeerStats and reads it for its shard.hedges column.
	Hedges int64 `json:"hedges"`
	// PhaseSeconds is the peer-reported wall time of each algorithm phase,
	// summed over this peer's successful tasks, keyed by canonical phase
	// name. Only phases that observed time appear.
	PhaseSeconds map[string]float64 `json:"phaseSeconds,omitempty"`
}

// Client scatters mines over remote rpserved peers and gathers them: each
// task is a POST /v1/shard/mine placed in plan order (peerFor), one
// request per attempt, with bounded retries and exponential backoff. A
// Client is safe for concurrent use; one serves every scatter of a
// coordinator.
type Client struct {
	cfg   ClientConfig
	peers []*peerCounters // sorted by URL; peerFor indexes into this order
}

// NewClient builds a client over the configured peer set.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("shard: ClientConfig.Retries must not be negative, got %d", cfg.Retries)
	}
	if cfg.Backoff < 0 {
		return nil, fmt.Errorf("shard: ClientConfig.Backoff must not be negative, got %v", cfg.Backoff)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: ClientConfig.Shards must not be negative, got %d", cfg.Shards)
	}
	urls := make([]string, 0, len(cfg.Peers))
	for _, u := range cfg.Peers {
		u = strings.TrimRight(u, "/")
		if u == "" {
			return nil, fmt.Errorf("shard: empty peer URL")
		}
		urls = append(urls, u)
	}
	slices.Sort(urls)
	urls = slices.Compact(urls)
	if len(urls) == 0 {
		return nil, fmt.Errorf("shard: a client needs at least one peer")
	}
	c := &Client{cfg: cfg.withDefaults()}
	if c.cfg.Shards == 0 {
		c.cfg.Shards = len(urls)
	}
	for _, u := range urls {
		c.peers = append(c.peers, &peerCounters{url: u})
	}
	return c, nil
}

// Peers reports the deduplicated, sorted peer URLs peerFor indexes.
func (c *Client) Peers() []string {
	urls := make([]string, len(c.peers))
	for i, p := range c.peers {
		urls[i] = p.url
	}
	return urls
}

// Shards reports the number of shard tasks each Mine plans.
func (c *Client) Shards() int { return c.cfg.Shards }

// Stats snapshots the per-peer counters, sorted by URL for deterministic
// exposition.
func (c *Client) Stats() []PeerStats {
	out := make([]PeerStats, len(c.peers))
	for i, p := range c.peers {
		out[i] = PeerStats{
			URL:     p.url,
			Success: p.success.Load(),
			Failure: p.failure.Load(),
			Retries: p.retries.Load(),
		}
		for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
			if n := p.phaseNanos[ph].Load(); n > 0 {
				if out[i].PhaseSeconds == nil {
					out[i].PhaseSeconds = make(map[string]float64)
				}
				out[i].PhaseSeconds[ph.String()] = float64(n) / 1e9
			}
		}
	}
	return out
}

// peerFor returns the peer attempt a of task t goes to: task i homes on
// sorted peer (FP + i) mod n, so no peer homes more than ⌈Count/n⌉ of a
// plan's tasks, and retry a moves a peers on, so the first n attempts
// visit every peer once.
func (c *Client) peerFor(t task, a int) int {
	n := uint64(len(c.peers))
	return int((t.FP%n + uint64(t.Index)%n + uint64(a)%n) % n)
}

// Mine scatters one mine over the peers — ClientConfig.Shards tasks, one
// goroutine each, each traced as an obs.PhaseShard span — and gathers: the
// partials merge (core.Result.Merge) and canonicalize into a result
// byte-identical to core.MineContext over the same database and options.
// The first task that fails after its retries cancels the rest of the
// scatter, and the mine returns that error; there is no partial result.
func (c *Client) Mine(ctx context.Context, db *tsdb.DB, o core.Options) (*core.Result, error) {
	tasks := plan(db.Fingerprint(), c.cfg.Shards)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	parts := make([]*core.Result, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t task) {
			defer wg.Done()
			sp := o.Trace.Start(obs.PhaseShard)
			parts[i], errs[i] = c.execute(sctx, db, o, t)
			sp.End()
			if errs[i] != nil {
				cancel()
			}
		}(i, t)
	}
	wg.Wait()

	failed := 0
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		failed++
		// Prefer the root-cause error over the cancellations it induced in
		// sibling tasks.
		if firstErr == nil || isCancellation(firstErr) && !isCancellation(err) {
			firstErr = err
		}
	}
	if failed > 0 {
		if err := ctx.Err(); err != nil {
			// The caller's own context fired; report that rather than a
			// per-task symptom.
			return nil, &core.CancelError{Err: err}
		}
		return nil, fmt.Errorf("shard: %d/%d shard tasks failed: %w", failed, len(tasks), firstErr)
	}
	res := &core.Result{}
	for _, p := range parts {
		res.Merge(p)
	}
	res.Canonicalize()
	return res, nil
}

// isCancellation reports whether err is a context or miner cancellation —
// the induced errors a failed scatter produces in the tasks it aborts.
func isCancellation(err error) bool {
	var cerr *core.CancelError
	return errors.Is(err, context.Canceled) || errors.As(err, &cerr)
}

// execute runs one shard task remotely: the first attempt goes to the
// task's home peer, and each failed attempt moves to the next peer after
// a doubling backoff, up to Retries re-dispatches. A context error stops
// retrying immediately — the caller cancelled or the scatter was failed
// fast; backoff waits also abort on ctx.
//
// A request ID on ctx (obs.WithRequestID) rides in the body and the
// X-Request-Id header, so the peer journals the task under the
// coordinator's ID and /debug/requests joins across the fleet.
//
// db is the coordinator's copy of the database: it resolves the wire
// patterns back to item IDs.
func (c *Client) execute(ctx context.Context, db *tsdb.DB, o core.Options, t task) (*core.Result, error) {
	reqID := obs.RequestIDFrom(ctx)
	body, err := json.Marshal(api.ShardMineRequest{
		MineRequest: api.FromCoreOptions(o),
		Shard:       t.Index,
		Shards:      t.Count,
		Fingerprint: fmt.Sprintf("%016x", t.FP),
		RequestID:   reqID,
	})
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		peer := c.peerFor(t, attempt)
		if attempt > 0 {
			c.peers[peer].retries.Add(1)
			if !sleep(ctx, c.cfg.Backoff<<(attempt-1)) {
				return nil, lastErr
			}
		}
		res, err := c.post(ctx, db, body, t, peer, reqID)
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("shard %d/%d: %d attempts failed: %w", t.Index, t.Count, c.cfg.Retries+1, lastErr)
}

// sleep waits for d or until ctx fires; it reports whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// post performs one POST /v1/shard/mine against one peer, verifying the
// response's version, fingerprint and task identity, and mapping the wire
// patterns back to item IDs against the coordinator's copy of the
// database.
func (c *Client) post(ctx context.Context, db *tsdb.DB, body []byte, t task, peer int, reqID string) (_ *core.Result, err error) {
	pc := c.peers[peer]
	defer func() {
		if err != nil {
			pc.failure.Add(1)
		}
	}()
	pctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, pc.url+"/v1/shard/mine", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard: peer %s: %w", pc.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard: peer %s: %s: %s", pc.url, resp.Status, errorBody(resp.Body))
	}
	sr, err := api.DecodeShardMineResponse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("shard: peer %s: decoding response: %w", pc.url, err)
	}
	if want := fmt.Sprintf("%016x", t.FP); sr.Fingerprint != want {
		return nil, fmt.Errorf("shard: peer %s mined fingerprint %s, want %s", pc.url, sr.Fingerprint, want)
	}
	if sr.Shard != t.Index || sr.Shards != t.Count {
		return nil, fmt.Errorf("shard: peer %s answered task %d/%d, want %d/%d",
			pc.url, sr.Shard, sr.Shards, t.Index, t.Count)
	}
	patterns, err := api.PatternsToCore(db, sr.Patterns)
	if err != nil {
		return nil, fmt.Errorf("shard: peer %s: %w", pc.url, err)
	}
	pc.success.Add(1)
	for _, st := range sr.Phases {
		if ph, ok := obs.ParsePhase(st.Phase); ok {
			pc.phaseNanos[ph].Add(st.Nanos)
		}
	}
	res := &core.Result{Patterns: patterns}
	if sr.Stats != nil {
		res.Stats = *sr.Stats
	}
	return res, nil
}

// PeerStatsBody is one peer's raw GET /v1/stats response (or the error the
// fetch failed with), as gathered by FetchStats.
type PeerStatsBody struct {
	URL  string
	Body []byte
	Err  error
}

// FetchStats GETs every peer's /v1/stats concurrently and returns the raw
// bodies in the client's deterministic (sorted-URL) peer order — the fan-out
// half of the coordinator's /v1/fleet/stats. Per-peer failures land in the
// entry's Err; the slice always has one entry per peer.
func (c *Client) FetchStats(ctx context.Context) []PeerStatsBody {
	out := make([]PeerStatsBody, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			out[i] = c.fetchStats(ctx, url)
		}(i, p.url)
	}
	wg.Wait()
	return out
}

func (c *Client) fetchStats(ctx context.Context, url string) PeerStatsBody {
	ctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return PeerStatsBody{URL: url, Err: err}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return PeerStatsBody{URL: url, Err: fmt.Errorf("peer %s: %w", url, err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return PeerStatsBody{URL: url, Err: fmt.Errorf("peer %s: %s: %s", url, resp.Status, errorBody(resp.Body))}
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return PeerStatsBody{URL: url, Err: fmt.Errorf("peer %s: %w", url, err)}
	}
	return PeerStatsBody{URL: url, Body: b}
}

// errorBody extracts the message of an api.ErrorResponse body, falling
// back to a bounded raw prefix for non-JSON errors.
func errorBody(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil || len(raw) == 0 {
		return "(no body)"
	}
	var e api.ErrorResponse
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}
