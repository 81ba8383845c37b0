package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// testDB is a small shop-style database with an obvious recurring pattern
// (bread+jam every other transaction) so real mines return something.
func testDB() *tsdb.DB {
	b := tsdb.NewBuilder()
	ts := int64(1)
	for i := 0; i < 30; i++ {
		b.Add("bread", ts)
		if i%2 == 0 {
			b.Add("jam", ts)
		}
		if i%7 == 0 {
			b.Add("bat", ts)
		}
		ts += 2
	}
	return b.Build()
}

type mineFunc func(ctx context.Context, db *tsdb.DB, o core.Options) (*core.Result, error)

func newTestServer(t *testing.T, cfg Config, fn mineFunc) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg, map[string]*tsdb.DB{"shop": testDB()})
	if err != nil {
		t.Fatal(err)
	}
	if fn != nil {
		s.mineFn = fn
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// postMine sends body to POST /v1/mine and decodes the JSON response into
// a generic map (so error and success bodies read the same way).
func postMine(t *testing.T, base, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/mine", "application/json", strings.NewReader(body))
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

func getStats(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func metric(t *testing.T, stats map[string]any, name string) float64 {
	t.Helper()
	ms, ok := stats["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("stats response has no metrics object: %v", stats)
	}
	v, ok := ms[name].(float64)
	if !ok {
		t.Fatalf("metrics has no numeric %q: %v", name, ms)
	}
	return v
}

func TestMineAndCacheHit(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	body := `{"db":"shop","per":4,"minPS":3,"minRec":1,"collectStats":true}`

	status, first := postMine(t, hs.URL, body)
	if status != http.StatusOK {
		t.Fatalf("first mine: status %d, body %v", status, first)
	}
	if first["cached"] != false {
		t.Errorf("first mine reported cached=%v, want false", first["cached"])
	}
	if n := first["count"].(float64); n < 1 {
		t.Fatalf("mine found no patterns; test DB misconfigured (body %v)", first)
	}
	if first["stats"] == nil {
		t.Error("collectStats request returned no stats")
	}

	status, second := postMine(t, hs.URL, body)
	if status != http.StatusOK || second["cached"] != true {
		t.Fatalf("identical request not served from cache: status %d, cached=%v", status, second["cached"])
	}
	if second["count"] != first["count"] {
		t.Errorf("cached count %v != fresh count %v", second["count"], first["count"])
	}

	// A no-stats request with the same thresholds must also hit (the key
	// excludes collectStats) and must omit the stats field.
	status, third := postMine(t, hs.URL, `{"db":"shop","per":4,"minPS":3,"minRec":1}`)
	if status != http.StatusOK || third["cached"] != true {
		t.Fatalf("no-stats variant missed the cache: status %d, cached=%v", status, third["cached"])
	}
	if _, present := third["stats"]; present {
		t.Error("no-stats request returned stats")
	}

	stats := getStats(t, hs.URL)
	if got := metric(t, stats, "cacheHits"); got != 2 {
		t.Errorf("cacheHits = %v, want 2", got)
	}
	if got := metric(t, stats, "cacheMisses"); got != 1 {
		t.Errorf("cacheMisses = %v, want 1", got)
	}
	if got := metric(t, stats, "mined"); got != 1 {
		t.Errorf("mined = %v, want 1", got)
	}
}

func TestValidateErrorTextMatchesCore(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	status, m := postMine(t, hs.URL, `{"db":"shop","per":0,"minPS":3}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	wantErr := core.Options{MinPS: 3, MinRec: 1}.Validate().Error()
	if got := m["error"]; got != wantErr {
		t.Errorf("error = %q, want core's Validate text %q", got, wantErr)
	}
}

func TestRequestErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)

	if status, _ := postMine(t, hs.URL, `{"db":"nope","per":2,"minPS":2}`); status != http.StatusNotFound {
		t.Errorf("unknown db: status %d, want 404", status)
	}
	if status, _ := postMine(t, hs.URL, `{"per":2,"minPS":2,"bogus":1}`); status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", status)
	}
	// With a single database served, naming it is optional.
	if status, m := postMine(t, hs.URL, `{"per":4,"minPS":3}`); status != http.StatusOK || m["db"] != "shop" {
		t.Errorf("unnamed single-db request: status %d, db %v", status, m["db"])
	}

	stats := getStats(t, hs.URL)
	if got := metric(t, stats, "errors"); got != 2 {
		t.Errorf("errors = %v, want 2", got)
	}
}

// blockingMine returns a mineFn stub that signals on started (buffered)
// each time a mine begins, then blocks until release is closed or ctx
// fires (returning a CancelError like the real miner).
func blockingMine(started chan struct{}, release chan struct{}) mineFunc {
	return func(ctx context.Context, db *tsdb.DB, o core.Options) (*core.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &core.Result{}, nil
		case <-ctx.Done():
			return nil, &core.CancelError{Err: ctx.Err()}
		}
	}
}

func TestSheddingUnderLoad(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	_, hs := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1}, blockingMine(started, release))

	// Occupy the single mining slot.
	firstDone := make(chan int, 1)
	go func() {
		status, _ := postMine(t, hs.URL, `{"per":2,"minPS":2}`)
		firstDone <- status
	}()
	<-started

	// A different request (different key, so no single-flight coalescing)
	// finds the slot busy and no queue: shed.
	status, m := postMine(t, hs.URL, `{"per":3,"minPS":2}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, body %v, want 429", status, m)
	}

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", status)
	}
	if got := metric(t, getStats(t, hs.URL), "shed"); got != 1 {
		t.Errorf("shed = %v, want 1", got)
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	var mines atomic32
	fn := func(ctx context.Context, db *tsdb.DB, o core.Options) (*core.Result, error) {
		mines.add(1)
		return blockingMine(started, release)(ctx, db, o)
	}
	_, hs := newTestServer(t, Config{MaxConcurrent: 4}, fn)

	body := `{"per":2,"minPS":2}`
	results := make(chan map[string]any, 2)
	go func() {
		_, m := postMine(t, hs.URL, body)
		results <- m
	}()
	<-started // leader is mining

	go func() {
		_, m := postMine(t, hs.URL, body)
		results <- m
	}()
	// The follower never reaches mineFn; give it a moment to join the
	// flight, then let the leader finish.
	time.Sleep(20 * time.Millisecond)
	close(release)

	a, b := <-results, <-results
	if got := mines.load(); got != 1 {
		t.Errorf("mineFn ran %d times for two identical concurrent requests, want 1", got)
	}
	cachedCount := 0
	for _, m := range []map[string]any{a, b} {
		if m["cached"] == true {
			cachedCount++
		}
	}
	if cachedCount != 1 {
		t.Errorf("%d of 2 coalesced responses were marked cached, want exactly 1 (the follower)", cachedCount)
	}
}

func TestMidMineCancellation(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	srv, hs := newTestServer(t, Config{}, blockingMine(started, release))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", hs.URL+"/v1/mine",
		strings.NewReader(`{"per":2,"minPS":2}`))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	<-started // the mine is running under the request's context
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled request returned a response, want a client error")
	}

	// The handler finishes asynchronously after the client disconnects;
	// poll the metric rather than racing it.
	deadline := time.After(5 * time.Second)
	for {
		if metric(t, getStats(t, hs.URL), "cancelled") == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("cancelled metric never reached 1")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if srv.adm.inFlight() != 0 {
		t.Errorf("admission slot leaked after cancellation: inFlight = %d", srv.adm.inFlight())
	}
}

func TestMineTimeout(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	_, hs := newTestServer(t, Config{MineTimeout: 10 * time.Millisecond}, blockingMine(started, release))

	status, m := postMine(t, hs.URL, `{"per":2,"minPS":2}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("timed-out mine: status %d, body %v, want 503", status, m)
	}
	if got := metric(t, getStats(t, hs.URL), "timeouts"); got != 1 {
		t.Errorf("timeouts = %v, want 1", got)
	}
}

func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, hs := newTestServer(t, Config{}, blockingMine(started, release))

	inFlightDone := make(chan int, 1)
	go func() {
		status, _ := postMine(t, hs.URL, `{"per":2,"minPS":2}`)
		inFlightDone <- status
	}()
	<-started

	srv.BeginDrain()

	// New mining work is refused while draining...
	if status, _ := postMine(t, hs.URL, `{"per":3,"minPS":2}`); status != http.StatusServiceUnavailable {
		t.Fatalf("mine during drain: status %d, want 503", status)
	}
	// ...and health checks fail so load balancers stop routing here.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", resp.StatusCode)
	}

	// Drain must wait for the in-flight mine.
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a mine was still running", err)
	case <-time.After(30 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last mine finished")
	}
	if status := <-inFlightDone; status != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", status)
	}

	// A second Drain with nothing in flight returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("idle Drain: %v", err)
	}
}

func TestDrainTimeout(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, hs := newTestServer(t, Config{}, blockingMine(started, release))

	done := make(chan struct{})
	go func() {
		postMine(t, hs.URL, `{"per":2,"minPS":2}`)
		close(done)
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Errorf("Drain with stuck mine: err = %v, want DeadlineExceeded", err)
	}
	close(release)
	<-done
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz: status %d body %q", resp.StatusCode, body)
	}
}

// TestMineCapturesLabeledProfile is the serve-level attribution check: a
// CPU profile pulled from GET /debug/pprof/profile while /v1/mine requests
// execute contains the pprof label keys and a real request ID minted by
// the handler. Sampling is statistical, so the profile window brackets a
// stream of uncached mines and the assertion retries. Each request carries
// a distinct maxLen above any pattern length: the mining work is the same,
// but no two requests share a cache key, so every one actually mines.
func TestMineCapturesLabeledProfile(t *testing.T) {
	s, err := NewServer(Config{
		Pprof:          true,
		MaxParallelism: 2, // let parallelism:2 reach the worker path
	}, map[string]*tsdb.DB{"big": bigDB()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1000; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := newNopResponseWriter()
			r, _ := http.NewRequest("POST", "/v1/mine", strings.NewReader(fmt.Sprintf(
				`{"db":"big","per":9,"minPS":5,"minRec":2,"maxLen":%d,"parallelism":2}`, i)))
			s.Handler().ServeHTTP(w, r)
			if w.status != http.StatusOK {
				t.Errorf("mine during profile: status %d", w.status)
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()

	for attempt := 0; attempt < 5; attempt++ {
		resp, err := http.Get(hs.URL + "/debug/pprof/profile?seconds=1")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/pprof/profile: status %d: %s", resp.StatusCode, raw)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		proto, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		// A real request ID from this server: "<8 hex>-<seq>". Checking for
		// the label keys plus the process's ID prefix keeps the assertion
		// independent of which requests got sampled.
		idPrefix := strings.SplitN(obs.RequestID(), "-", 2)[0]
		if bytes.Contains(proto, []byte(obs.LabelRequestID)) &&
			bytes.Contains(proto, []byte(obs.LabelDatasetFP)) &&
			bytes.Contains(proto, []byte(obs.LabelPhase)) &&
			bytes.Contains(proto, []byte(idPrefix)) {
			return
		}
	}
	t.Fatal("no profile attempt contained request_id/dataset_fp/phase labels")
}

// nopResponseWriter is an in-process ResponseWriter for hammering the
// handler without HTTP sockets in the way.
type nopResponseWriter struct {
	h      http.Header
	status int
}

func newNopResponseWriter() *nopResponseWriter {
	return &nopResponseWriter{h: make(http.Header), status: http.StatusOK}
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(status int)      { w.status = status }

func TestStatsPayload(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 3, CacheSize: 7}, nil)
	stats := getStats(t, hs.URL)

	dbs, ok := stats["databases"].([]any)
	if !ok || len(dbs) != 1 {
		t.Fatalf("databases = %v, want 1 entry", stats["databases"])
	}
	db := dbs[0].(map[string]any)
	if db["name"] != "shop" || db["transactions"].(float64) != 30 {
		t.Errorf("db entry = %v", db)
	}
	want := testDB().Fingerprint()
	if got := db["fingerprint"]; got != fmt.Sprintf("%016x", want) {
		t.Errorf("fingerprint = %v, want %016x", got, want)
	}
	cfg := stats["config"].(map[string]any)
	if cfg["maxConcurrent"].(float64) != 3 || cfg["cacheSize"].(float64) != 7 {
		t.Errorf("config = %v", cfg)
	}
	rt, ok := stats["runtime"].(map[string]any)
	if !ok {
		t.Fatalf("stats response has no runtime section: %v", stats)
	}
	if rt["goroutines"].(float64) < 1 || rt["heapInuseBytes"].(float64) <= 0 {
		t.Errorf("runtime gauges implausible: %v", rt)
	}
	if _, ok := stats["cacheHitRatio"].(float64); !ok {
		t.Errorf("stats response has no cacheHitRatio: %v", stats)
	}
}

func TestAdmissionQueueTimeout(t *testing.T) {
	a := newAdmission(1, 8, 15*time.Millisecond)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Slot taken: a queued acquire must shed after the queue timeout.
	if err := a.acquire(context.Background()); err != errShed {
		t.Errorf("queued acquire: err = %v, want errShed", err)
	}
	// Cancelled context wins over the queue timeout.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.acquire(ctx); err != context.Canceled {
		t.Errorf("cancelled acquire: err = %v, want context.Canceled", err)
	}
	a.release()
	if err := a.acquire(context.Background()); err != nil {
		t.Errorf("acquire after release: %v", err)
	}
	a.release()
}

func TestAdmissionQueueBound(t *testing.T) {
	a := newAdmission(1, 1, time.Second)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue; the next must shed immediately.
	var wg sync.WaitGroup
	wg.Add(1)
	waiterErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		waiterErr <- a.acquire(context.Background())
	}()
	waitFor(t, func() bool { return a.waiting() == 1 })

	if err := a.acquire(context.Background()); err != errShed {
		t.Errorf("over-queue acquire: err = %v, want errShed", err)
	}

	a.release() // hands the slot to the queued waiter
	wg.Wait()
	if err := <-waiterErr; err != nil {
		t.Errorf("queued waiter: %v", err)
	}
	a.release()
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	k := func(i int) cacheKey { return cacheKey{fp: uint64(i)} }
	v := &cachedResult{}

	c.put(k(1), v)
	c.put(k(2), v)
	if _, ok := c.get(k(1)); !ok { // touch 1 → 2 is now LRU
		t.Fatal("k1 missing")
	}
	c.put(k(3), v) // evicts 2
	if _, ok := c.get(k(2)); ok {
		t.Error("k2 survived past capacity; LRU order wrong")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Error("recently used k1 was evicted")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	disabled := newResultCache(0)
	disabled.put(k(1), v)
	if _, ok := disabled.get(k(1)); ok || disabled.len() != 0 {
		t.Error("zero-capacity cache stored an entry")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal("condition never became true")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// atomic32 is a tiny counter; sync/atomic's Int32 spelled out to keep the
// test dependency surface minimal.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// syncBuffer is a mutex-guarded bytes buffer for capturing log output that
// handlers may still be writing after the client got its response.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	if status, m := postMine(t, hs.URL, `{"db":"shop","per":4,"minPS":3,"minRec":1}`); status != http.StatusOK {
		t.Fatalf("mine: status %d, body %v", status, m)
	}

	resp, body := getBody(t, hs.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type = %q, want the 0.0.4 text exposition", ct)
	}

	// The mining-time histogram must expose its bucket bounds and count the
	// one executed mine; a sub-millisecond test mine lands in every
	// cumulative bucket.
	for _, want := range []string{
		"# TYPE rpserved_mining_seconds histogram",
		`rpserved_mining_seconds_bucket{le="0.001"}`,
		`rpserved_mining_seconds_bucket{le="10"}`,
		`rpserved_mining_seconds_bucket{le="+Inf"} 1`,
		"rpserved_mining_seconds_count 1",
		"# TYPE rpserved_requests_total counter",
		"rpserved_requests_total 1",
		"# TYPE rpserved_in_flight gauge",
		"rpserved_in_flight 0",
		"rpserved_cache_entries 1",
		"rpserved_cache_hit_ratio 0",
		"rpserved_draining 0",
		"# TYPE go_goroutines gauge",
		"go_goroutines ",
		"go_heap_inuse_bytes ",
		"go_heap_sys_bytes ",
		"# TYPE go_gc_pause_seconds_total counter",
		"go_gc_cycles_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
	// The per-phase histograms carry the run's trace attribution.
	for _, phase := range []string{"scan", "tree-build", "mine"} {
		if !strings.Contains(body, `rpserved_phase_seconds_bucket{phase="`+phase+`",le="+Inf"} 1`) {
			t.Errorf("metrics output lacks the %s phase histogram:\n%s", phase, body)
		}
	}
}

func TestMaxBodyLimit(t *testing.T) {
	var logs syncBuffer
	_, hs := newTestServer(t, Config{MaxBody: 64, Logger: obs.NewLogger(&logs, slog.LevelInfo)}, nil)

	// Leading whitespace is legal JSON framing, so the decoder must read
	// through it — and trips the byte limit long before the value ends.
	status, m := postMine(t, hs.URL, strings.Repeat(" ", 256)+`{"db":"shop","per":4,"minPS":3}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, body %v, want 413", status, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "64-byte limit") {
		t.Errorf("error message %q does not name the limit", msg)
	}
	if got := metric(t, getStats(t, hs.URL), "errors"); got != 1 {
		t.Errorf("errors = %v, want 1", got)
	}
	waitFor(t, func() bool { return strings.Contains(logs.String(), "outcome=body-too-large") })

	// An in-limit request on the same server still works.
	if status, _ := postMine(t, hs.URL, `{"db":"shop","per":4,"minPS":3}`); status != http.StatusOK {
		t.Errorf("in-limit request: status %d, want 200", status)
	}
}

func TestAccessLog(t *testing.T) {
	var logs syncBuffer
	_, hs := newTestServer(t, Config{Logger: obs.NewLogger(&logs, slog.LevelInfo)}, nil)

	body := `{"db":"shop","per":4,"minPS":3,"minRec":1}`
	if status, _ := postMine(t, hs.URL, body); status != http.StatusOK {
		t.Fatal("mine failed")
	}
	if status, _ := postMine(t, hs.URL, body); status != http.StatusOK {
		t.Fatal("cache hit failed")
	}
	waitFor(t, func() bool { return strings.Count(logs.String(), "outcome=") >= 2 })

	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), logs.String())
	}
	wantFP := fmt.Sprintf("fp=%016x", testDB().Fingerprint())
	for i, want := range []string{"outcome=ok", "outcome=cache-hit"} {
		line := lines[i]
		for _, frag := range []string{want, "db=shop", wantFP,
			`opts="per=4,minPS=3,minRec=1,maxLen=0,par=0,order=support,erec=on"`, "status=200"} {
			if !strings.Contains(line, frag) {
				t.Errorf("log line %d lacks %q: %s", i, frag, line)
			}
		}
	}
	// Request IDs are present and distinct.
	id := func(line string) string {
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "id=") {
				return f
			}
		}
		return ""
	}
	if a, b := id(lines[0]), id(lines[1]); a == "" || a == b {
		t.Errorf("request ids not distinct: %q vs %q", a, b)
	}
}

func TestStatsHistogramBounds(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	stats := getStats(t, hs.URL)
	ms := stats["metrics"].(map[string]any)
	buckets, ok := ms["miningTime"].([]any)
	if !ok || len(buckets) != len(histBounds)+1 {
		t.Fatalf("miningTime = %v, want %d buckets", ms["miningTime"], len(histBounds)+1)
	}
	prev := int64(0)
	for i, raw := range buckets {
		b := raw.(map[string]any)
		le, ok := b["leNanos"].(float64)
		if !ok {
			t.Fatalf("bucket %d has no numeric leNanos: %v", i, b)
		}
		if i == len(buckets)-1 {
			if le != -1 || b["le"] != "+Inf" {
				t.Errorf("last bucket = %v, want the +Inf catch-all", b)
			}
			break
		}
		if int64(le) <= prev {
			t.Errorf("bucket bounds not ascending at %d: %v", i, buckets)
		}
		prev = int64(le)
	}
}

func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{}, nil)
	if resp, _ := getBody(t, off.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without Pprof: status %d, want 404", resp.StatusCode)
	}
	_, on := newTestServer(t, Config{Pprof: true}, nil)
	if resp, _ := getBody(t, on.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with Pprof: status %d, want 200", resp.StatusCode)
	}
}
