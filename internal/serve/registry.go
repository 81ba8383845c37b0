// The dataset registry is the "upload once, mine many" half of the
// service: POST /v1/datasets reads a TDB (any format) into memory,
// parses it through the one-pass ingest path, and registers the database
// under its content fingerprint; POST /v1/mine then addresses it as
// {"dataset": "<fp>"} with no body re-parse. Registry memory is bounded
// by entry count and by estimated resident bytes, evicting least recently
// mined datasets first. Eviction only drops the registry's reference —
// in-flight mines hold their own and finish safely on the heap copy.
package serve

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// errDatasetTooLarge rejects a dataset whose resident size alone exceeds
// the whole registry budget; admitting it would evict everything else and
// still leave the registry over its bound.
var errDatasetTooLarge = errors.New("serve: dataset exceeds the registry memory budget")

// regDataset is one registered dataset. The db is always heap-resident
// (uploads parse to the heap, never mmap), so eviction is reference drop
// plus GC — no unmap hazard for mines still running over it.
type regDataset struct {
	fp    uint64
	db    *tsdb.DB
	bytes int64  // estimated resident size, the unit of the byte bound
	name  string // optional client-supplied label
	hits  int64  // mines served by reference; under the registry mutex
}

// registry is the LRU-bounded dataset store, keyed by content
// fingerprint. All methods are safe for concurrent use.
type registry struct {
	maxBytes   int64
	maxEntries int

	mu    sync.Mutex
	bytes int64
	ll    *list.List // front = most recently used; values are *regDataset
	idx   map[uint64]*list.Element
}

func newRegistry(maxBytes int64, maxEntries int) *registry {
	return &registry{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		ll:         list.New(),
		idx:        make(map[uint64]*list.Element),
	}
}

// put registers ds, evicting least recently used datasets as needed to
// respect the bounds. When the fingerprint is already registered the
// existing dataset is refreshed (same content by definition) and existing
// is true. evicted reports how many datasets were displaced.
func (g *registry) put(ds *regDataset) (existing bool, evicted int, err error) {
	if ds.bytes > g.maxBytes {
		return false, 0, errDatasetTooLarge
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if el, ok := g.idx[ds.fp]; ok {
		// Same content; keep the resident copy, adopt the fresher label.
		old := el.Value.(*regDataset)
		if ds.name != "" {
			old.name = ds.name
		}
		g.ll.MoveToFront(el)
		return true, 0, nil
	}
	g.idx[ds.fp] = g.ll.PushFront(ds)
	g.bytes += ds.bytes
	for g.ll.Len() > 1 && (g.ll.Len() > g.maxEntries || g.bytes > g.maxBytes) {
		oldest := g.ll.Back()
		g.removeLocked(oldest)
		evicted++
	}
	return false, evicted, nil
}

// get returns the dataset for fp, marking it most recently used.
func (g *registry) get(fp uint64) (*regDataset, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	el, ok := g.idx[fp]
	if !ok {
		return nil, false
	}
	g.ll.MoveToFront(el)
	ds := el.Value.(*regDataset)
	ds.hits++
	return ds, true
}

// delete evicts fp explicitly.
func (g *registry) delete(fp uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	el, ok := g.idx[fp]
	if !ok {
		return false
	}
	g.removeLocked(el)
	return true
}

func (g *registry) removeLocked(el *list.Element) {
	ds := el.Value.(*regDataset)
	g.ll.Remove(el)
	delete(g.idx, ds.fp)
	g.bytes -= ds.bytes
}

// stats returns the entry count and estimated resident bytes.
func (g *registry) stats() (entries int, bytes int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ll.Len(), g.bytes
}

// snapshot lists the datasets most recently used first — the LRU order is
// deterministic for a given request sequence, so listings are stable.
func (g *registry) snapshot() []datasetInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]datasetInfo, 0, g.ll.Len())
	for el := g.ll.Front(); el != nil; el = el.Next() {
		ds := el.Value.(*regDataset)
		items := 0
		if ds.db.Dict != nil {
			items = ds.db.Dict.Len()
		}
		out = append(out, datasetInfo{
			Fingerprint:  fmt.Sprintf("%016x", ds.fp),
			Name:         ds.name,
			Transactions: ds.db.Len(),
			Items:        items,
			Bytes:        ds.bytes,
			Hits:         ds.hits,
		})
	}
	return out
}

// estimateDBBytes approximates a database's resident heap size: name
// storage with per-entry map and header overhead, plus the transaction
// index and item arrays. It is the accounting unit of the registry's byte
// bound — an estimate, not an audit; consistent is what matters.
func estimateDBBytes(db *tsdb.DB) int64 {
	const (
		nameOverhead = 64 // map entry + names-slice header + string header
		txOverhead   = 32 // Transaction struct + items slice header
	)
	total := int64(0)
	if db.Dict != nil {
		for i := 0; i < db.Dict.Len(); i++ {
			total += int64(len(db.Dict.Name(tsdb.ItemID(i)))) + nameOverhead
		}
	}
	for _, tr := range db.Trans {
		total += txOverhead + 4*int64(len(tr.Items))
	}
	return total
}

// parseFingerprint parses the 16-hex-digit wire form of a fingerprint.
func parseFingerprint(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("serve: fingerprint must be 16 hex digits, got %q", s)
	}
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: bad fingerprint %q", s)
	}
	return fp, nil
}

// datasetInfo describes one registered dataset in listings and stats.
type datasetInfo struct {
	Fingerprint  string `json:"fingerprint"`
	Name         string `json:"name,omitempty"`
	Transactions int    `json:"transactions"`
	Items        int    `json:"items"`
	// Bytes is the estimated resident size counted against the registry
	// budget; Hits the number of mines addressed to this dataset.
	Bytes int64 `json:"bytes"`
	Hits  int64 `json:"hits"`
}

// uploadResponse is the JSON body of a successful POST /v1/datasets.
type uploadResponse struct {
	Fingerprint string `json:"fingerprint"`
	// Existing reports the fingerprint was already registered (the upload
	// was an idempotent no-op beyond an LRU touch).
	Existing     bool  `json:"existing"`
	Transactions int   `json:"transactions"`
	Items        int   `json:"items"`
	Bytes        int64 `json:"bytes"`
	// UploadBytes is the size of the request body as received; IngestMS the
	// parse wall time (the ingest phase of this request's journal entry).
	UploadBytes int64   `json:"uploadBytes"`
	IngestMS    float64 `json:"ingestMS"`
	Evicted     int     `json:"evicted,omitempty"`
}

// listDatasetsResponse is the JSON body of GET /v1/datasets.
type listDatasetsResponse struct {
	Count    int           `json:"count"`
	Bytes    int64         `json:"bytes"`
	MaxBytes int64         `json:"maxBytes"`
	Datasets []datasetInfo `json:"datasets"`
}

// handleDatasetUpload ingests one dataset: the body is read into memory
// (bounded by MaxUpload with the same JSON 413 as /v1/mine), parsed
// through the one-pass ingest path, and registered under its fingerprint.
// The ingest is phase-attributed and journalled like a mine, so
// /debug/requests shows upload requests with an "ingest" phase and
// mine-by-fingerprint requests without one.
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	start := now()
	s.metrics.uploads.Add(1)
	rec := &accessRecord{id: obs.RequestID(), outcome: "uploaded", status: http.StatusCreated}
	defer s.logAccess("dataset-upload", start, rec)

	// The buffer grows only as bytes arrive, never from the length a
	// client states.
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUpload))
	if err != nil {
		// refuse answers an over-MaxUpload body with the same 413 as an
		// over-MaxBody mine.
		s.refuse(w, r, rec, &requestError{"upload-error", http.StatusBadRequest,
			fmt.Errorf("reading upload: %w", err)})
		return
	}
	n := int64(len(data))
	rec.opts = fmt.Sprintf("bytes=%d", n)

	// Parse in one pass, attributing the wall time (and the
	// byte count: time + count = throughput) to the ingest phase.
	trace := obs.NewTrace()
	begin := now()
	db, err := tsdb.ReadAnyBytes(data)
	ingest := time.Since(begin)
	trace.Observe(obs.PhaseIngest, int64(ingest), n)
	trace.ObserveTotal(int64(ingest))
	rec.report = trace.Report()
	s.metrics.observeTrace(rec.report)
	if err != nil {
		s.refuse(w, r, rec, &requestError{"bad-dataset", http.StatusBadRequest,
			fmt.Errorf("parsing dataset: %w", err)})
		return
	}

	fp := db.Fingerprint()
	rec.fp = fmt.Sprintf("%016x", fp)
	rec.db = r.URL.Query().Get("name")
	ds := &regDataset{
		fp:    fp,
		db:    db,
		bytes: estimateDBBytes(db),
		name:  rec.db,
	}
	existing, evicted, err := s.registry.put(ds)
	if err != nil {
		s.refuse(w, r, rec, &requestError{"dataset-too-large", http.StatusRequestEntityTooLarge, err})
		return
	}
	if existing {
		rec.outcome, rec.status = "dataset-exists", http.StatusOK
	}
	s.metrics.datasetEvictions.Add(int64(evicted))

	items := 0
	if db.Dict != nil {
		items = db.Dict.Len()
	}
	s.writeJSON(w, rec.status, uploadResponse{
		Fingerprint:  rec.fp,
		Existing:     existing,
		Transactions: db.Len(),
		Items:        items,
		Bytes:        ds.bytes,
		UploadBytes:  n,
		IngestMS:     float64(ingest) / 1e6,
		Evicted:      evicted,
	})
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	entries, bytes := s.registry.stats()
	s.writeJSON(w, http.StatusOK, listDatasetsResponse{
		Count:    entries,
		Bytes:    bytes,
		MaxBytes: s.cfg.RegistryMaxBytes,
		Datasets: s.registry.snapshot(),
	})
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	fp, err := parseFingerprint(r.PathValue("fp"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.registry.delete(fp) {
		s.fail(w, http.StatusNotFound, "serve: unknown dataset %q", r.PathValue("fp"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// lookupDataset resolves a mine request's dataset reference.
func (s *Server) lookupDataset(ref string) (*dbEntry, error) {
	fp, err := parseFingerprint(ref)
	if err != nil {
		return nil, &requestError{"unknown-dataset", http.StatusBadRequest, err}
	}
	ds, ok := s.registry.get(fp)
	if !ok {
		return nil, &requestError{"unknown-dataset", http.StatusNotFound,
			fmt.Errorf("serve: unknown dataset %q (expired from the registry, or never uploaded)", ref)}
	}
	name := ds.name
	if name == "" {
		name = "dataset:" + ref[:8]
	}
	return &dbEntry{name: name, db: ds.db, fp: ds.fp}, nil
}
