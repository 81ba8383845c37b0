// Package serve implements the rpserved HTTP mining service: a handler
// that runs RP-growth over pre-loaded databases on demand, protected by a
// semaphore-based admission controller, an LRU result cache with
// single-flight deduplication, per-request cancellation wired through
// core.MineContext, and graceful drain for shutdown. The package is
// net/http-only by design — cmd/rpserved adds flags, listening and signal
// handling, nothing else.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/obs/prof"
	"github.com/recurpat/rp/internal/shard"
	"github.com/recurpat/rp/internal/tsdb"
)

// now is the single clock read-out of the package, used for request timing
// and histogram observations; the service's outputs stay deterministic in
// everything but the timing fields.
func now() time.Time {
	return time.Now() //rpvet:allow determinism -- serving metrics need wall time
}

// statusClientClosedRequest is the (nginx-convention) status recorded when
// the client disconnected or cancelled while its mine was queued or
// running. The client never sees it; it exists for logs and tests.
const statusClientClosedRequest = 499

// errDraining reports that the server has begun shutting down and accepts
// no new mining work.
var errDraining = errors.New("serve: server is draining")

// Config tunes the service. The zero value is usable: each zero resolves
// to the default documented on its field, and NewServer rejects negative
// values (MaxQueue excepted).
type Config struct {
	// MaxConcurrent caps simultaneously running mines. 0 → GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue caps requests waiting for a mining slot; beyond it requests
	// are shed with 429, as are requests that wait longer than
	// queueTimeout. 0 → 4×MaxConcurrent, negative → a zero-length queue
	// (shed immediately when all slots are busy).
	MaxQueue int
	// MineTimeout bounds a single mining run; an over-limit run is
	// cancelled via its context and reported as 503. 0 → unlimited.
	MineTimeout time.Duration
	// CacheSize caps the result cache in entries. 0 → 64.
	CacheSize int
	// MaxParallelism caps the per-request Parallelism option (requests
	// asking for more are clamped, not rejected). 0 → GOMAXPROCS.
	MaxParallelism int
	// MaxBody caps the request body in bytes, enforced with
	// http.MaxBytesReader; over-limit requests are rejected with 413.
	// 0 → 1 MiB.
	MaxBody int64
	// MaxUpload caps a POST /v1/datasets body in bytes, with the same 413
	// shape as MaxBody. It is separate because datasets are legitimately
	// orders of magnitude larger than mine requests. 0 → 64 MiB.
	MaxUpload int64
	// RegistryMaxBytes bounds the estimated resident size of all registered
	// datasets; least recently mined datasets are evicted to stay under it.
	// 0 → 256 MiB.
	RegistryMaxBytes int64
	// RegistryMaxEntries bounds the number of registered datasets. 0 → 64.
	RegistryMaxEntries int
	// Logger receives the access log: one line per /v1/mine request with
	// its id, database, options digest, outcome and timings. nil → discard.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when set. Off by
	// default: the profiling endpoints can stall the process mid-scrape.
	// It is the service's only profile source; CPU samples taken while a
	// mine runs carry the obs.WithMineLabels and obs.DoPhase labels.
	Pprof bool

	// Peers, when non-empty, turns this server into a scatter-gather
	// coordinator: each executed /v1/mine splits into Shards tasks POSTed
	// to the peers' /v1/shard/mine endpoints (placed in plan order, so
	// each peer homes an even share of every mine's tasks) and the
	// partials merge into a result byte-identical to a single-box mine.
	// The shard client runs at shard.ClientConfig's default retries and
	// backoff, and a shard task that still fails after its retries fails
	// the whole mine.
	// Peers must serve the same database bytes; tasks pin the content
	// fingerprint.
	Peers []string
	// Shards is the number of shard tasks per mine in peers mode.
	// 0 → one per distinct peer (duplicates and trailing slashes
	// collapse). NewServer rejects a non-zero value without Peers.
	Shards int
}

// Serving constants that are not Config fields: no deployment has needed
// another value.
const (
	// queueTimeout bounds how long a queued request waits for a mining
	// slot before it is shed with 429.
	queueTimeout = time.Second
	// journalSize is the number of recent requests the /debug/requests
	// journal retains.
	journalSize = 64
	// slowThreshold is the elapsed time at which a journalled request also
	// enters the journal's long-term slow bucket.
	slowThreshold = 500 * time.Millisecond
)

// validate rejects the configurations withDefaults cannot resolve.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		neg  bool
		v    any
	}{
		{"MaxConcurrent", c.MaxConcurrent < 0, c.MaxConcurrent},
		{"MineTimeout", c.MineTimeout < 0, c.MineTimeout},
		{"CacheSize", c.CacheSize < 0, c.CacheSize},
		{"MaxParallelism", c.MaxParallelism < 0, c.MaxParallelism},
		{"MaxBody", c.MaxBody < 0, c.MaxBody},
		{"MaxUpload", c.MaxUpload < 0, c.MaxUpload},
		{"RegistryMaxBytes", c.RegistryMaxBytes < 0, c.RegistryMaxBytes},
		{"RegistryMaxEntries", c.RegistryMaxEntries < 0, c.RegistryMaxEntries},
		{"Shards", c.Shards < 0, c.Shards},
	} {
		if f.neg {
			return fmt.Errorf("serve: Config.%s must not be negative, got %v", f.name, f.v)
		}
	}
	if c.Shards != 0 && len(c.Peers) == 0 {
		return fmt.Errorf("serve: Config.Shards is %d but Config.Peers is empty; shards are scattered only over peers", c.Shards)
	}
	return nil
}

// withDefaults resolves the zero values documented on Config.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.MaxParallelism == 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxBody == 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxUpload == 0 {
		c.MaxUpload = 64 << 20
	}
	if c.RegistryMaxBytes == 0 {
		c.RegistryMaxBytes = 256 << 20
	}
	if c.RegistryMaxEntries == 0 {
		c.RegistryMaxEntries = 64
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// dbEntry is one served database with its precomputed cache identity.
type dbEntry struct {
	name string
	db   *tsdb.DB
	fp   uint64
}

// Server is the mining service. Create with NewServer, mount Handler on an
// http.Server, and call Drain before exiting.
//
// Its two mine endpoints are thin adapters over one request pipeline,
// execute: decode under MaxBody, target resolution, options and the
// parallelism clamp, then runMine's drain accounting, admission, timeout,
// pprof labels, per-run trace and cost capture, with one
// error → status mapping (refuse) and one access-log and journal emitter
// (logAccess). POST /v1/mine adds only the result cache, single-flight
// coalescing and, with Config.Peers, the coordinator's scatter; POST
// /v1/shard/mine adds only the rank spec and its ShardMineResponse.
type Server struct {
	cfg      Config
	dbs      map[string]*dbEntry
	names    []string // sorted, for deterministic listings
	registry *registry
	adm      *admission
	cache    *resultCache
	flight   *flightGroup
	metrics  metrics
	journal  *journal
	handler  http.Handler

	// mineFn runs one mine; tests substitute stubs to simulate slow or
	// failing miners without real databases.
	mineFn func(ctx context.Context, db *tsdb.DB, o core.Options) (*core.Result, error)

	// shardClient is set in peers mode (Config.Peers): executed mines
	// scatter over the peer set instead of running locally.
	shardClient *shard.Client

	// Drain machinery: beginMine/endMine bracket every mining run (cache
	// hits excluded — they borrow no resources worth waiting for).
	drainMu  sync.Mutex
	draining bool
	active   int
	idle     chan struct{} // non-nil while a Drain waits for active==0
}

// NewServer builds a Server over the given databases (name → DB). The map
// may be empty: a registry-only server starts with no preloaded databases
// and serves whatever clients upload to POST /v1/datasets.
func NewServer(cfg Config, dbs map[string]*tsdb.DB) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		dbs:      make(map[string]*dbEntry, len(dbs)),
		registry: newRegistry(cfg.RegistryMaxBytes, cfg.RegistryMaxEntries),
		adm:      newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, queueTimeout),
		cache:    newResultCache(cfg.CacheSize),
		flight:   newFlightGroup(),
		journal:  newJournal(journalSize, slowThreshold),
		mineFn:   core.MineContext,
	}
	if len(cfg.Peers) > 0 {
		client, err := shard.NewClient(shard.ClientConfig{Peers: cfg.Peers, Shards: cfg.Shards})
		if err != nil {
			return nil, err
		}
		s.shardClient = client
	}
	for name, db := range dbs {
		if name == "" {
			return nil, errors.New("serve: database name must be non-empty")
		}
		s.dbs[name] = &dbEntry{name: name, db: db, fp: db.Fingerprint()}
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/mine", s.handleMine)
	mux.HandleFunc("POST /v1/shard/mine", s.handleShardMine)
	mux.HandleFunc("POST /v1/datasets", s.handleDatasetUpload)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	mux.HandleFunc("DELETE /v1/datasets/{fp}", s.handleDatasetDelete)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/fleet/stats", s.handleFleetStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	if cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// BeginDrain flips the server into draining mode: new mines are refused
// with 503 and /healthz starts failing, while already-running mines
// continue. It is the non-blocking half of Drain.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
}

// Drain begins draining (if BeginDrain hasn't already) and blocks until
// every in-flight mine has finished or ctx fires. Cache-hit responses and
// stats reads are not waited for — http.Server.Shutdown covers those.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	if s.active == 0 {
		s.drainMu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.drainMu.Unlock()

	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether BeginDrain or Drain has been called.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// beginMine registers a mining run for drain accounting, refusing when the
// server is draining.
func (s *Server) beginMine() error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return errDraining
	}
	s.active++
	return nil
}

func (s *Server) endMine() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.active--
	if s.active == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
}

// maxMineAttempts bounds the follower-retry loop: how many times one
// request will re-enter the single-flight group after watching a leader
// get cancelled out from under it.
const maxMineAttempts = 3

// accessRecord accumulates one request's access-log and journal fields;
// the deferred logAccess emits it however the request ends.
type accessRecord struct {
	id        string
	db        string
	fp        string
	opts      string
	outcome   string // "ok", "cache-hit", "coalesced", "shed", ... — one word per exit path
	status    int
	cached    bool
	patterns  int
	queueWait time.Duration // time spent waiting for a mining slot (leaders only)
	mineTime  time.Duration // the producing mine's wall time (historic on cache hits)

	// allocBytes and cpuTime are the producing mine's resource cost,
	// measured as process-counter deltas around the mining section
	// (historic on cache hits; an upper bound when mines overlap).
	allocBytes uint64
	cpuTime    time.Duration

	// Journal-only fields: the producing run's per-phase report, and
	// whether it was inherited from a cached result rather than measured
	// during this request.
	report   obs.PhaseReport
	historic bool
}

// inherit fills the record's producing-run fields from a cached result.
func (rec *accessRecord) inherit(v *cachedResult) {
	rec.mineTime = v.mineTime
	rec.allocBytes, rec.cpuTime = v.allocBytes, v.cpuTime
	rec.report, rec.historic = v.report, true
}

// optionsDigest is the compact access-log form of the resolved options.
// Every wire option that can change the output (or its search cost) is
// present, so two log lines with equal digests describe the same mine.
// maxLen stays followed by another field: the end-to-end benchmark strips
// "maxLen=N," to group journal rows by request kind.
func optionsDigest(o core.Options) string {
	return fmt.Sprintf("per=%d,minPS=%d,minRec=%d,maxLen=%d,par=%d",
		o.Per, o.MinPS, o.MinRec, o.MaxLen, o.Parallelism)
}

// requestError is a request refused for a cause of its own (bad input,
// unknown target, ...): the journal outcome, the HTTP status and the
// client-facing cause. refuse counts it under the errors metric.
type requestError struct {
	outcome string
	status  int
	err     error
}

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

// mineCall is one mine request on its way through execute: the access
// record every exit path fills in, and what the request resolved to.
type mineCall struct {
	start time.Time
	rec   *accessRecord
	req   *api.MineRequest // the options and addressing part of the wire request
	pin   string           // content fingerprint the target must have ("" = any)
	ent   *dbEntry
	o     core.Options
}

// route is what one mine endpoint plugs into execute.
type route struct {
	// log is the access-log message, ok the outcome of a served request.
	log, ok string
	// id is the request ID a coordinator propagated, if any ("" = mint one).
	id string
	// decode reads the endpoint's wire request into c (c.req at least).
	decode func(body io.Reader, c *mineCall) error
	// serve mines the resolved c through runMine and writes the response.
	serve func(w http.ResponseWriter, c *mineCall) error
}

// execute is the request pipeline both mine endpoints share: decode under
// the MaxBody limit, target resolution, options and the parallelism clamp,
// then the route's serve step, whose mine runs through runMine (drain,
// admission, timeout, labels, trace and cost capture). It owns the one
// error → status mapping (refuse) and the deferred access-log line and
// journal entry, so every exit path of either endpoint is reported once
// and the same way.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, rt route) {
	c := &mineCall{start: now(), rec: &accessRecord{id: rt.id, outcome: rt.ok, status: http.StatusOK}}
	defer s.logAccess(rt.log, c.start, c.rec)
	err := s.resolve(w, r, rt, c)
	if err == nil {
		err = rt.serve(w, c)
	}
	if err != nil {
		s.refuse(w, r, c.rec, err)
	}
}

// resolve is execute's preamble: decode, target, options.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, rt route, c *mineCall) error {
	if err := rt.decode(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody), c); err != nil {
		var re *requestError
		if !errors.As(err, &re) {
			err = &requestError{"bad-request", http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)}
		}
		return err
	}
	if c.rec.id == "" {
		c.rec.id = obs.RequestID()
	}
	ent, err := s.resolveTarget(c.req, c.pin)
	if err != nil {
		return err
	}
	c.ent = ent
	c.rec.db, c.rec.fp = ent.name, fmt.Sprintf("%016x", ent.fp)
	// Threshold resolution and validation live in the api package so the
	// two endpoints, remote peers and clients can never disagree.
	if c.o, err = c.req.ToCoreOptions(ent.db.Len()); err != nil {
		return &requestError{"invalid-options", http.StatusBadRequest, err}
	}
	c.o.Parallelism = min(c.o.Parallelism, s.cfg.MaxParallelism)
	c.rec.opts = optionsDigest(c.o)
	return nil
}

// refuse is the one error → status mapping of the mine endpoints (and
// the dataset upload): it records the outcome on rec, counts it, and
// writes the JSON error response.
func (s *Server) refuse(w http.ResponseWriter, r *http.Request, rec *accessRecord, err error) {
	var (
		mbe     *http.MaxBytesError
		re      *requestError
		counter = &s.metrics.errors
		msg     = err.Error()
	)
	switch {
	case errors.As(err, &mbe):
		// Distinct from plain bad requests: a too-large body usually means
		// a client is POSTing the database instead of naming it.
		rec.outcome, rec.status = "body-too-large", http.StatusRequestEntityTooLarge
		msg = fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit)
	case errors.As(err, &re):
		rec.outcome, rec.status = re.outcome, re.status
	case errors.Is(err, errShed):
		rec.outcome, rec.status, counter = "shed", http.StatusTooManyRequests, &s.metrics.shed
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, errDraining):
		rec.outcome, rec.status, counter = "draining", http.StatusServiceUnavailable, nil
	case r.Context().Err() != nil:
		// The client cancelled or disconnected; it won't read this, but
		// record the outcome for logs and metrics.
		rec.outcome, rec.status, counter = "cancelled", statusClientClosedRequest, &s.metrics.cancelled
		msg = "client cancelled request"
	case errors.Is(err, context.DeadlineExceeded):
		rec.outcome, rec.status, counter = "timeout", http.StatusServiceUnavailable, &s.metrics.timeouts
		msg = fmt.Sprintf("mine exceeded the server-side time limit of %v", s.cfg.MineTimeout)
	default:
		rec.outcome, rec.status = "error", http.StatusInternalServerError
		msg = "mining failed: " + msg
	}
	if counter != nil {
		counter.Add(1)
	}
	s.writeError(w, rec.status, msg)
}

// runMine is execute's mining step: drain accounting, admission, the
// optional server-side deadline, request labels, the run's own trace and
// the cost capture around mine. What it measures lands on
// c.rec and in the cost metrics.
func (s *Server) runMine(ctx context.Context, c *mineCall, mine func(context.Context, core.Options) (*core.Result, error)) (*core.Result, error) {
	if err := s.beginMine(); err != nil {
		return nil, err
	}
	defer s.endMine()

	// Each run gets its own trace so the per-phase histograms see per-run
	// attributions, not a shared running total.
	o := c.o
	o.Trace = obs.NewTrace()
	queued := now()
	err := s.adm.acquire(ctx)
	c.rec.queueWait = time.Since(queued)
	if err != nil {
		return nil, err
	}
	defer s.adm.release()

	if s.cfg.MineTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.MineTimeout)
		defer cancel()
	}
	// Stamp the request's ID on the mining context: in peers mode the shard
	// client forwards it to every peer (request body and X-Request-Id), so
	// the coordinator's and the peers' journals join on one ID. The pprof
	// labels make a CPU profile taken during the run (GET
	// /debug/pprof/profile with Config.Pprof) attribute its samples to this
	// request and database.
	ctx = obs.WithMineLabels(obs.WithRequestID(ctx, c.rec.id), c.rec.id, c.rec.fp)
	begin := now()
	cost0 := prof.ReadCost()
	res, err := mine(ctx, o)
	if err != nil {
		return nil, err
	}
	// Process-counter deltas around the mining section: exact while one
	// mine runs at a time, an upper bound when mines overlap (the journal
	// and docs say so). CPU is rusage-based, so it includes all worker
	// goroutines' time, which is the point.
	cost := prof.ReadCost().Sub(cost0)
	rec := c.rec
	rec.mineTime = time.Since(begin)
	rec.allocBytes, rec.cpuTime = cost.AllocBytes, cost.CPU
	rec.report = o.Trace.Report()
	s.metrics.observeCost(cost.AllocBytes, cost.CPU)
	return res, nil
}

// handleMine serves POST /v1/mine through execute. What is its own: the
// result cache, single-flight coalescing of identical concurrent mines
// and, in peers mode, the scatter over the shard peers.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.execute(w, r, route{
		log: "mine", ok: "ok",
		decode: func(body io.Reader, c *mineCall) (err error) {
			c.req, err = api.DecodeMineRequest(body)
			return err
		},
		serve: func(w http.ResponseWriter, c *mineCall) error { return s.serveMine(w, r, c) },
	})
}

// serveMine answers a resolved /v1/mine request from the cache, from a
// concurrent identical mine, or by leading the mine itself.
func (s *Server) serveMine(w http.ResponseWriter, r *http.Request, c *mineCall) error {
	// Mine with stats unconditionally (the counters cost nothing next to
	// the mining itself) so one cached entry serves stats and no-stats
	// requests alike; the response includes them only on request.
	c.o.CollectStats = true
	key := cacheKey{
		fp:     c.ent.fp,
		per:    c.o.Per,
		minPS:  c.o.MinPS,
		minRec: c.o.MinRec,
		maxLen: c.o.MaxLen,
	}
	v, cached := s.cache.get(key)
	if cached {
		s.metrics.cacheHits.Add(1)
		c.rec.outcome = "cache-hit"
	} else {
		s.metrics.cacheMisses.Add(1)
		var (
			err    error
			leader bool
		)
		for attempt := 0; attempt < maxMineAttempts; attempt++ {
			v, err, leader = s.flight.do(r.Context(), key, func() (*cachedResult, error) {
				return s.leadMine(r.Context(), c, key)
			})
			// A follower whose leader was cancelled retries while its own
			// request is still live; one of the retrying followers becomes
			// the next leader. Shed and drain outcomes are shared as-is.
			var cerr *core.CancelError
			if err == nil || leader || !errors.As(err, &cerr) || r.Context().Err() != nil {
				break
			}
		}
		if err != nil {
			return err
		}
		if !leader {
			cached = true
			c.rec.outcome = "coalesced"
		}
	}
	if cached {
		c.rec.cached = true
		c.rec.inherit(v)
	}
	c.rec.patterns = len(v.patterns)
	resp := api.MineResponse{
		V:         api.Version,
		DB:        c.ent.name,
		Count:     len(v.patterns),
		Cached:    cached,
		ElapsedMS: float64(time.Since(c.start)) / 1e6,
		MiningMS:  float64(v.mineTime) / 1e6,
		Patterns:  v.patterns,
	}
	if c.req.CollectStats {
		stats := v.stats
		resp.Stats = &stats
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

// leadMine is the single-flight leader's run: the mine itself (scattered
// over the peers in peers mode), then the name-resolved result that fills
// the cache.
func (s *Server) leadMine(ctx context.Context, c *mineCall, key cacheKey) (*cachedResult, error) {
	res, err := s.runMine(ctx, c, func(ctx context.Context, o core.Options) (*core.Result, error) {
		if s.shardClient == nil {
			return s.mineFn(ctx, c.ent.db, o)
		}
		// Peers mode: the gathered result is byte-identical to the local
		// mineFn path, or the mine fails.
		return s.shardClient.Mine(ctx, c.ent.db, o)
	})
	if err != nil {
		return nil, err
	}
	s.metrics.observeMineTime(c.rec.mineTime)
	s.metrics.observeTrace(c.rec.report)
	v := &cachedResult{
		patterns:   api.PatternsFromCore(c.ent.db, res.Patterns),
		stats:      res.Stats,
		mineTime:   c.rec.mineTime,
		report:     c.rec.report,
		allocBytes: c.rec.allocBytes,
		cpuTime:    c.rec.cpuTime,
	}
	s.cache.put(key, v)
	return v, nil
}

// handleShardMine executes one shard task of a scatter-gather mine through
// execute. What is its own: the rank spec the task mines (validated with
// the request) and the ShardMineResponse. The coordinator usually
// addresses the database by content fingerprint alone (it doesn't know or
// care what this peer named it), and nothing is cached — the coordinator
// owns the merged result's lifecycle.
//
// The task is journalled under the coordinator's propagated request ID
// (X-Request-Id header, body fallback) so /debug/requests joins across the
// fleet, and the response carries the run's per-phase report for the
// coordinator's per-peer phase metrics.
func (s *Server) handleShardMine(w http.ResponseWriter, r *http.Request) {
	var (
		req  *api.ShardMineRequest
		spec core.ShardSpec
	)
	s.metrics.shardRequests.Add(1)
	s.execute(w, r, route{
		log: "shard-mine", ok: "shard-ok",
		id: r.Header.Get("X-Request-Id"),
		decode: func(body io.Reader, c *mineCall) (err error) {
			if req, err = api.DecodeShardMineRequest(body); err != nil {
				return err
			}
			if c.rec.id == "" {
				c.rec.id = req.RequestID
			}
			spec = core.ShardSpec{Index: req.Shard, Count: req.Shards}
			if err := spec.Validate(); err != nil {
				return &requestError{"bad-request", http.StatusBadRequest, err}
			}
			if req.Fingerprint == "" && req.DB == "" && req.Dataset == "" {
				return &requestError{"bad-request", http.StatusBadRequest,
					errors.New("serve: shard request must address a database (fingerprint, db or dataset)")}
			}
			c.req, c.pin = &req.MineRequest, req.Fingerprint
			return nil
		},
		serve: func(w http.ResponseWriter, c *mineCall) error {
			c.rec.opts += fmt.Sprintf(",shard=%d/%d", req.Shard, req.Shards)
			res, err := s.runMine(r.Context(), c, func(ctx context.Context, o core.Options) (*core.Result, error) {
				return core.MineShardContext(ctx, c.ent.db, o, spec)
			})
			if err != nil {
				return err
			}
			s.metrics.shardMined.Add(1)
			c.rec.patterns = len(res.Patterns)
			resp := api.ShardMineResponse{
				V:           api.Version,
				Fingerprint: c.rec.fp,
				Shard:       req.Shard,
				Shards:      req.Shards,
				Count:       len(res.Patterns),
				MiningMS:    float64(c.rec.mineTime) / 1e6,
				Patterns:    api.PatternsFromCore(c.ent.db, res.Patterns),
				Stats:       &res.Stats,
				Phases:      activePhases(c.rec.report),
			}
			s.writeJSON(w, http.StatusOK, resp)
			return nil
		},
	})
}

// resolveTarget resolves a request's database: a registered dataset by
// fingerprint, a preloaded database by name, or — for a shard task
// addressed by pin alone — whichever of the two has that content
// fingerprint. No transaction data rides in a request; mine-by-reference is
// what makes repeat mining cheap. A non-empty pin refuses a database with
// any other content: shards of one mine must agree on bytes, not names.
func (s *Server) resolveTarget(req *api.MineRequest, pin string) (*dbEntry, error) {
	var want uint64
	if pin != "" {
		fp, err := parseFingerprint(pin)
		if err != nil {
			return nil, &requestError{"unknown-db", http.StatusBadRequest, err}
		}
		want = fp
	}
	var (
		ent *dbEntry
		err error
	)
	switch {
	case req.Dataset != "" && req.DB != "":
		return nil, &requestError{"bad-request", http.StatusBadRequest, errors.New("serve: set db or dataset, not both")}
	case req.Dataset != "":
		ent, err = s.lookupDataset(req.Dataset)
	case req.DB == "" && pin != "":
		for _, name := range s.names {
			if s.dbs[name].fp == want {
				return s.dbs[name], nil
			}
		}
		if ent, err = s.lookupDataset(pin); err != nil {
			return nil, &requestError{"unknown-db", http.StatusNotFound,
				fmt.Errorf("serve: no database with fingerprint %s", pin)}
		}
	default:
		ent, err = s.lookupDB(req.DB)
	}
	if err != nil {
		return nil, err
	}
	if pin != "" && ent.fp != want {
		return nil, &requestError{"unknown-db", http.StatusConflict, fmt.Errorf(
			"serve: database %q has fingerprint %016x, task wants %s", ent.name, ent.fp, pin)}
	}
	return ent, nil
}

// lookupDB resolves a request's database name; an empty name is allowed
// when exactly one database is served.
func (s *Server) lookupDB(name string) (*dbEntry, error) {
	if name == "" {
		if len(s.names) == 1 {
			return s.dbs[s.names[0]], nil
		}
		if len(s.names) == 0 {
			return nil, &requestError{"unknown-db", http.StatusBadRequest, errors.New(
				"serve: no preloaded databases; upload one to /v1/datasets and mine it by fingerprint")}
		}
		return nil, &requestError{"unknown-db", http.StatusBadRequest,
			fmt.Errorf("serve: request must name a database (serving %d)", len(s.names))}
	}
	ent, ok := s.dbs[name]
	if !ok {
		return nil, &requestError{"unknown-db", http.StatusNotFound, fmt.Errorf("serve: unknown database %q", name)}
	}
	return ent, nil
}

// dbInfo describes one served database in /v1/stats.
type dbInfo struct {
	Name         string `json:"name"`
	Fingerprint  string `json:"fingerprint"` // hex, as logged at load time
	Transactions int    `json:"transactions"`
	Items        int    `json:"items"`
	SpanStart    int64  `json:"spanStart"`
	SpanEnd      int64  `json:"spanEnd"`
}

// statsResponse is the JSON body of GET /v1/stats.
type statsResponse struct {
	Draining bool `json:"draining"`
	InFlight int  `json:"inFlight"`
	Queued   int  `json:"queued"`
	CacheLen int  `json:"cacheLen"`
	CacheCap int  `json:"cacheCap"`
	// CacheHitRatio is hits / (hits + misses) over the server's lifetime,
	// 0 before the first lookup.
	CacheHitRatio float64         `json:"cacheHitRatio"`
	Databases     []dbInfo        `json:"databases"`
	Registry      registryStats   `json:"registry"`
	Metrics       MetricsSnapshot `json:"metrics"`
	Runtime       runtimeInfo     `json:"runtime"`
	Config        configInfo      `json:"config"`
	GoMaxProcs    int             `json:"goMaxProcs"`
	// ShardPeers holds the per-peer scatter counters when this server is a
	// coordinator (Config.Peers); absent otherwise.
	ShardPeers []shard.PeerStats `json:"shardPeers,omitempty"`
}

// runtimeInfo is the Go runtime health section of /v1/stats: enough to
// spot a leaking or GC-bound process without attaching pprof.
type runtimeInfo struct {
	Goroutines     int     `json:"goroutines"`
	HeapInuseBytes uint64  `json:"heapInuseBytes"`
	HeapSysBytes   uint64  `json:"heapSysBytes"`
	GCPauseMSTotal float64 `json:"gcPauseMSTotal"`
	GCCycles       uint32  `json:"gcCycles"`
}

// readRuntimeInfo snapshots the runtime health gauges (one ReadMemStats
// per call; scrape-frequency cost, not request-frequency).
func readRuntimeInfo() runtimeInfo {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeInfo{
		Goroutines:     runtime.NumGoroutine(),
		HeapInuseBytes: ms.HeapInuse,
		HeapSysBytes:   ms.HeapSys,
		GCPauseMSTotal: float64(ms.PauseTotalNs) / 1e6,
		GCCycles:       ms.NumGC,
	}
}

// cacheHitRatio derives the lifetime hit ratio from the counters.
func (s *Server) cacheHitRatio() float64 {
	hits := float64(s.metrics.cacheHits.Load())
	misses := float64(s.metrics.cacheMisses.Load())
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// configInfo is the resolved Config, with durations rendered as strings.
type configInfo struct {
	MaxConcurrent  int    `json:"maxConcurrent"`
	MaxQueue       int    `json:"maxQueue"`
	MineTimeout    string `json:"mineTimeout"`
	CacheSize      int    `json:"cacheSize"`
	MaxParallelism int    `json:"maxParallelism"`
	MaxUpload      int64  `json:"maxUpload"`
	RegistryBytes  int64  `json:"registryMaxBytes"`
	RegistryCap    int    `json:"registryMaxEntries"`

	// Peers-mode settings; zero/absent on a single-box server.
	Peers  []string `json:"peers,omitempty"`
	Shards int      `json:"shards,omitempty"`
}

// registryStats is the dataset-registry section of /v1/stats.
type registryStats struct {
	Entries  int           `json:"entries"`
	Bytes    int64         `json:"bytes"`
	Datasets []datasetInfo `json:"datasets"`
}

func (s *Server) statsPayload() statsResponse {
	resp := statsResponse{
		Draining:      s.Draining(),
		InFlight:      s.adm.inFlight(),
		Queued:        s.adm.waiting(),
		CacheLen:      s.cache.len(),
		CacheCap:      s.cfg.CacheSize,
		CacheHitRatio: s.cacheHitRatio(),
		Metrics:       s.metrics.snapshot(),
		Runtime:       readRuntimeInfo(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Config: configInfo{
			MaxConcurrent:  s.cfg.MaxConcurrent,
			MaxQueue:       s.cfg.MaxQueue,
			MineTimeout:    s.cfg.MineTimeout.String(),
			CacheSize:      s.cfg.CacheSize,
			MaxParallelism: s.cfg.MaxParallelism,
			MaxUpload:      s.cfg.MaxUpload,
			RegistryBytes:  s.cfg.RegistryMaxBytes,
			RegistryCap:    s.cfg.RegistryMaxEntries,
		},
	}
	if s.shardClient != nil {
		resp.ShardPeers = s.shardClient.Stats()
		resp.Config.Peers = s.shardClient.Peers()
		resp.Config.Shards = s.shardClient.Shards()
	}
	entries, bytes := s.registry.stats()
	resp.Registry = registryStats{
		Entries:  entries,
		Bytes:    bytes,
		Datasets: s.registry.snapshot(),
	}
	for _, name := range s.names {
		ent := s.dbs[name]
		first, last := ent.db.Span()
		items := 0
		if ent.db.Dict != nil {
			items = ent.db.Dict.Len()
		}
		resp.Databases = append(resp.Databases, dbInfo{
			Name:         name,
			Fingerprint:  fmt.Sprintf("%016x", ent.fp),
			Transactions: ent.db.Len(),
			Items:        items,
			SpanStart:    first,
			SpanEnd:      last,
		})
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.statsPayload())
}

// fleetPeerStats is one peer's section of /v1/fleet/stats: its /v1/stats
// body verbatim, or the error the fetch failed with.
type fleetPeerStats struct {
	URL   string          `json:"url"`
	Stats json.RawMessage `json:"stats,omitempty"`
	Error string          `json:"error,omitempty"`
}

// fleetStatsResponse is the JSON body of GET /v1/fleet/stats.
type fleetStatsResponse struct {
	Coordinator statsResponse    `json:"coordinator"`
	Peers       []fleetPeerStats `json:"peers"`
}

// handleFleetStats is the coordinator's fleet-wide view: its own stats
// payload plus every peer's /v1/stats fetched concurrently, in
// deterministic (sorted-URL) order. A peer being down degrades to an error
// string in that peer's entry, never to a failed response — the endpoint
// exists precisely for looking at unhealthy fleets. 404 on non-coordinators.
func (s *Server) handleFleetStats(w http.ResponseWriter, r *http.Request) {
	if s.shardClient == nil {
		s.writeError(w, http.StatusNotFound, "serve: not a shard coordinator (no peers configured)")
		return
	}
	bodies := s.shardClient.FetchStats(r.Context())
	resp := fleetStatsResponse{
		Coordinator: s.statsPayload(),
		Peers:       make([]fleetPeerStats, len(bodies)),
	}
	for i, b := range bodies {
		resp.Peers[i].URL = b.URL
		if b.Err != nil {
			resp.Peers[i].Error = b.Err.Error()
			continue
		}
		resp.Peers[i].Stats = json.RawMessage(b.Body)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the Prometheus text exposition: the counter and
// histogram families owned by metrics, then the instantaneous gauges that
// live on the Server.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	s.metrics.writeProm(p)
	p.Gauge("rpserved_in_flight", "Mining runs currently executing.", float64(s.adm.inFlight()))
	p.Gauge("rpserved_queue_depth", "Requests waiting for a mining slot.", float64(s.adm.waiting()))
	p.Gauge("rpserved_cache_entries", "Entries in the result cache.", float64(s.cache.len()))
	p.Gauge("rpserved_cache_hit_ratio", "Lifetime fraction of cache lookups that hit.", s.cacheHitRatio())
	regEntries, regBytes := s.registry.stats()
	p.Gauge("rpserved_datasets", "Datasets currently in the registry.", float64(regEntries))
	p.Gauge("rpserved_registry_bytes", "Estimated resident bytes of registered datasets.", float64(regBytes))
	draining := 0.0
	if s.Draining() {
		draining = 1
	}
	p.Gauge("rpserved_draining", "1 while the server refuses new mines for shutdown.", draining)
	if s.shardClient != nil {
		peerStats := s.shardClient.Stats()
		peerSamples := func(value func(shard.PeerStats) int64) []obs.LabeledValue {
			out := make([]obs.LabeledValue, len(peerStats))
			for i, ps := range peerStats {
				out[i] = obs.LabeledValue{Labels: map[string]string{"peer": ps.URL}, Value: float64(value(ps))}
			}
			return out
		}
		p.CounterVec("rpserved_shard_peer_success_total", "Shard tasks answered successfully, per peer.",
			peerSamples(func(ps shard.PeerStats) int64 { return ps.Success }))
		p.CounterVec("rpserved_shard_peer_failure_total", "Shard task attempts that failed, per peer.",
			peerSamples(func(ps shard.PeerStats) int64 { return ps.Failure }))
		p.CounterVec("rpserved_shard_peer_retries_total", "Shard task re-dispatches after a failure, per peer.",
			peerSamples(func(ps shard.PeerStats) int64 { return ps.Retries }))
		// Per-peer per-phase wall time, as reported by the peers themselves
		// in their shard responses: where fleet mining time actually goes.
		// Phase iteration follows the canonical phase order and peers are
		// already URL-sorted, so exposition is deterministic.
		var phaseSamples []obs.LabeledValue
		for _, ps := range peerStats {
			for _, phase := range obs.PhaseNames() {
				if sec, ok := ps.PhaseSeconds[phase]; ok {
					phaseSamples = append(phaseSamples, obs.LabeledValue{
						Labels: map[string]string{"peer": ps.URL, "phase": phase},
						Value:  sec,
					})
				}
			}
		}
		p.CounterVec("rpserved_shard_peer_phase_seconds",
			"Peer-reported wall time per algorithm phase, summed over this coordinator's successful shard tasks.",
			phaseSamples)
	}
	// Go runtime health: the gauges a dashboard needs to tell a leaking or
	// GC-bound process from a loaded one. Names follow the conventional
	// go_* client families.
	ri := readRuntimeInfo()
	p.Gauge("go_goroutines", "Goroutines that currently exist.", float64(ri.Goroutines))
	p.Gauge("go_heap_inuse_bytes", "Heap bytes in in-use spans.", float64(ri.HeapInuseBytes))
	p.Gauge("go_heap_sys_bytes", "Heap bytes obtained from the OS.", float64(ri.HeapSysBytes))
	p.Counter("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", ri.GCPauseMSTotal/1e3)
	p.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(ri.GCCycles))
	// A scrape error only means the scraper went away mid-read; there is
	// nothing useful to do about it here.
	_ = p.Err()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprintln(w, "ok")
}

// fail writes an error response and counts it in the errors metric; use
// writeError directly for outcomes with their own counters (shed,
// cancelled, timeouts).
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.errors.Add(1)
	s.writeError(w, status, fmt.Sprintf(format, args...))
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, api.ErrorResponse{Error: msg})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Compact, one line: indented, the pattern bodies of /v1/mine and
	// /v1/shard/mine ship at about twice the size, and a coordinator's
	// decoder scans every byte of the padding.
	// The status line is already out; an encoding failure here can only
	// mean the client went away mid-write.
	_ = json.NewEncoder(w).Encode(v)
}
