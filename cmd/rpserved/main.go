// Command rpserved serves RP-growth mining over HTTP: it loads zero or
// more databases at startup and answers mining requests against them (or
// against uploaded datasets) until shut down, with admission control,
// result caching and metrics (see internal/serve and the README's Serving
// section).
//
// Usage:
//
//	rpserved -db shop=shop.tdb [-db web=web.tdb] [flags]
//	rpserved -dataset shop14:0.05:1 -listen 127.0.0.1:0
//	rpserved -listen 127.0.0.1:0   # registry-only: mine what clients upload
//
// Databases come from files (-db name=path, any on-disk format), are
// generated in-process from the paper's dataset simulators
// (-dataset name[:scale[:seed]]), or arrive over HTTP through the dataset
// registry — upload once, mine many times by fingerprint. The HTTP surface:
//
//	POST /v1/mine    {"db":"shop","per":360,"minPS":20,"minRec":2} → patterns
//	                 or {"dataset":"<fp>",...} to mine an uploaded dataset
//	POST /v1/shard/mine   one shard task of a scatter-gather mine,
//	                      addressed by content fingerprint; what a
//	                      coordinator (-peers) sends its peers
//	POST /v1/datasets     upload a database body (any format); it is parsed
//	                      in one pass, registered under its content
//	                      fingerprint, and the fingerprint returned.
//	                      Bounded by -max-upload; the registry evicts least
//	                      recently mined datasets past -registry-bytes /
//	                      -registry-entries
//	GET    /v1/datasets      list registered datasets (most recently used first)
//	DELETE /v1/datasets/{fp} evict one dataset
//	GET  /v1/stats   serving counters, cache state, runtime health,
//	                 database inventory
//	GET  /v1/fleet/stats  (coordinators only) this server's stats plus
//	                      every peer's /v1/stats, fetched in parallel;
//	                      unreachable peers degrade to an error string
//	GET  /metrics    Prometheus text exposition (counters, mining and
//	                 per-phase time histograms, serving and Go runtime
//	                 health gauges)
//	GET  /healthz    liveness; fails once draining begins
//	GET  /debug/requests  journal of recent and slowest requests with
//	                      per-phase breakdowns (HTML; ?format=json)
//	GET  /debug/pprof/...  net/http/pprof, only with -pprof. Mining
//	                       samples in /debug/pprof/profile carry pprof
//	                       labels (request_id, dataset_fp, phase), so a
//	                       profile attributes CPU to the requests it
//	                       overlapped
//
// Every /v1/mine request emits one structured access-log line (log/slog,
// logfmt) on stderr with a unique request id, the database fingerprint, an
// options digest, the outcome (ok, cache-hit, shed, cancelled, ...), queue
// wait and mine time. Request bodies beyond -max-body are rejected with 413.
//
// With -peers, this server becomes a scatter-gather coordinator: each
// executed mine splits into -shards tasks POSTed to the peers'
// /v1/shard/mine endpoints (placed in plan order, so each peer homes an
// even share of every mine's tasks; a failed task is retried twice on the
// next peers with backoff) and the merged result is byte-identical to a
// single-box mine. A task that fails every attempt fails the mine: there
// are no partial results. Peers must serve the same database bytes — tasks
// pin the content fingerprint. Shard RPCs carry the coordinator's request
// id (X-Request-Id and the requestID body field), so every server's
// /debug/requests journal joins on it: each peer journals its task under
// that id with shard=i/n in its options digest and its own queue, mine and
// elapsed times. Peer-reported phase times surface as
// rpserved_shard_peer_phase_seconds in /metrics.
//
// On SIGINT/SIGTERM the server stops accepting mines, drains the in-flight
// ones (bounded by -drain-timeout) and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/recurpat/rp/internal/bench"
	"github.com/recurpat/rp/internal/cliio"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/serve"
	"github.com/recurpat/rp/internal/tsdb"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rpserved:", err)
		os.Exit(1)
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func run(args []string, logDst io.Writer) error {
	logw := cliio.NewWriter(logDst)
	fs := flag.NewFlagSet("rpserved", flag.ContinueOnError)
	var dbSpecs, datasetSpecs multiFlag
	fs.Var(&dbSpecs, "db", "serve a database file as name=path (repeatable)")
	fs.Var(&datasetSpecs, "dataset", "serve a generated dataset as name[:scale[:seed]] (repeatable)")
	var peerSpecs multiFlag
	fs.Var(&peerSpecs, "peers", "scatter mines over these rpserved peer URLs (repeatable or comma-separated); this server becomes a coordinator")
	var (
		listen       = fs.String("listen", "127.0.0.1:8080", "address to listen on (:0 picks a free port)")
		maxConc      = fs.Int("max-concurrent", 0, "max simultaneous mines (0 = GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 0, "max queued mine requests (0 = 4x max-concurrent, <0 = no queue)")
		mineTimeout  = fs.Duration("mine-timeout", 0, "server-side limit per mining run (0 = none)")
		cacheSize    = fs.Int("cache-size", 0, "result cache entries (0 = 64)")
		maxPar       = fs.Int("max-parallelism", 0, "cap on per-request parallelism (0 = GOMAXPROCS)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight mines")
		maxBody      = fs.Int64("max-body", 0, "request body size limit in bytes (0 = 1 MiB)")
		maxUpload    = fs.Int64("max-upload", 0, "dataset upload size limit in bytes (0 = 64 MiB)")
		regBytes     = fs.Int64("registry-bytes", 0, "dataset registry memory budget in bytes (0 = 256 MiB)")
		regEntries   = fs.Int("registry-entries", 0, "dataset registry entry cap (0 = 64)")
		pprofOn      = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		quiet        = fs.Bool("quiet", false, "suppress the per-request access log")
		shards       = fs.Int("shards", 0, "shard tasks per mine in -peers mode (0 = one per distinct peer)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q (databases are given with -db/-dataset)", fs.Args())
	}

	dbs, err := loadDatabases(dbSpecs, datasetSpecs)
	if err != nil {
		return err
	}
	logger := obs.NopLogger()
	if !*quiet {
		logger = obs.NewLogger(logDst, slog.LevelInfo)
	}
	srv, err := serve.NewServer(serve.Config{
		MaxConcurrent:      *maxConc,
		MaxQueue:           *maxQueue,
		MineTimeout:        *mineTimeout,
		CacheSize:          *cacheSize,
		MaxParallelism:     *maxPar,
		MaxBody:            *maxBody,
		MaxUpload:          *maxUpload,
		RegistryMaxBytes:   *regBytes,
		RegistryMaxEntries: *regEntries,
		Logger:             logger,
		Pprof:              *pprofOn,
		Peers:              splitPeers(peerSpecs),
		Shards:             *shards,
	}, dbs)
	if err != nil {
		return err
	}
	for _, name := range sortedNames(dbs) {
		db := dbs[name]
		fmt.Fprintf(logw, "rpserved: serving %q: %d transactions, fingerprint %016x\n",
			name, db.Len(), db.Fingerprint())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "rpserved: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain

	fmt.Fprintln(logw, "rpserved: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(logw, "rpserved: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(logw, "rpserved: stopped")
	return logw.Err()
}

// splitPeers flattens repeatable -peers values, each possibly
// comma-separated, into one URL list.
func splitPeers(specs []string) []string {
	var peers []string
	for _, spec := range specs {
		for _, p := range strings.Split(spec, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	return peers
}

// loadDatabases assembles the served name → DB map from file and dataset
// specs, rejecting duplicate names across both kinds.
func loadDatabases(dbSpecs, datasetSpecs []string) (map[string]*tsdb.DB, error) {
	dbs := make(map[string]*tsdb.DB, len(dbSpecs)+len(datasetSpecs))
	for _, spec := range dbSpecs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("-db %q: want name=path", spec)
		}
		if _, dup := dbs[name]; dup {
			return nil, fmt.Errorf("duplicate database name %q", name)
		}
		db, err := tsdb.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("-db %s: %w", spec, err)
		}
		dbs[name] = db
	}
	for _, spec := range datasetSpecs {
		name, scale, seed, err := parseDatasetSpec(spec)
		if err != nil {
			return nil, err
		}
		if _, dup := dbs[name]; dup {
			return nil, fmt.Errorf("duplicate database name %q", name)
		}
		d, err := bench.Load(name, scale, seed)
		if err != nil {
			return nil, err
		}
		dbs[name] = d.DB
	}
	return dbs, nil
}

// parseDatasetSpec splits "name[:scale[:seed]]", defaulting to the paper's
// full scale and seed 1.
func parseDatasetSpec(spec string) (name string, scale float64, seed uint64, err error) {
	parts := strings.Split(spec, ":")
	name, scale, seed = parts[0], 1, 1
	if name == "" || len(parts) > 3 {
		return "", 0, 0, fmt.Errorf("-dataset %q: want name[:scale[:seed]]", spec)
	}
	if len(parts) > 1 {
		scale, err = strconv.ParseFloat(parts[1], 64)
		if err == nil {
			err = bench.CheckScale(scale)
		}
		if err != nil {
			return "", 0, 0, fmt.Errorf("-dataset %q: bad scale %q: %w", spec, parts[1], err)
		}
	}
	if len(parts) > 2 {
		seed, err = strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return "", 0, 0, fmt.Errorf("-dataset %q: bad seed %q", spec, parts[2])
		}
	}
	return name, scale, seed, nil
}

func sortedNames(dbs map[string]*tsdb.DB) []string {
	names := make([]string, 0, len(dbs))
	for name := range dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
