package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// The request classes of serve-mix.
const (
	classUpload = "upload"
	classCold   = "mine_cold"
	classCached = "mine_cached"
)

// blockCached is the number of cached mines in a serve-mix block. A
// client's stream is a run of blocks: an upload of a fresh dataset, then
// one cold mine of it per cold threshold and blockCached mines of the hot
// set in a seeded order. Fixed proportions keep serve_rps comparable
// across seeds.
const blockCached = 7

// servePar is the parallelism serve-mix's mines ask for: the worker-pool
// path, on the machine's two cores.
const servePar = 2

// shiftStep separates the timestamp shifts of uploaded variants; it
// exceeds every transformed timestamp, so each upload is new content.
const shiftStep = int64(1) << 32

// classStats is the record of one request class.
type classStats struct {
	latMS     []float64
	elapsedMS float64 // Σ reply elapsedMS
	miningMS  float64 // Σ reply miningMS of executed mines
	ingestMS  float64 // Σ reply ingestMS of uploads
	sent      int64   // Σ request body bytes of uploads
	received  int64   // Σ reply bytes
}

func (cs *classStats) merge(o *classStats) {
	cs.latMS = append(cs.latMS, o.latMS...)
	cs.elapsedMS += o.elapsedMS
	cs.miningMS += o.miningMS
	cs.ingestMS += o.ingestMS
	cs.sent += o.sent
	cs.received += o.received
}

// serveMix is what serve-mix's clients share; read-only while they run.
type serveMix struct {
	hc    *http.Client
	url   string
	trace bool
	hot   []mineKey
	bases []*input
	refs  [][]*reference // [base][cold threshold]
}

// serveClient is one closed-loop client of serve-mix.
type serveClient struct {
	mx        *serveMix
	id        int
	rng       *rand.Rand
	uploads   int
	pending   []mineKey
	classes   map[string]*classStats
	stats     map[string]core.MineStats // the first cold reply's MineStats per key kind
	fpBase    map[string]string         // uploaded fingerprint → its base sample
	attempted int
	failed    int
	errs      []string
}

func newServeClient(mx *serveMix, id int, seed int64) *serveClient {
	c := &serveClient{
		mx: mx, id: id,
		rng:     rand.New(rand.NewSource(seed*1009 + int64(id))),
		classes: map[string]*classStats{},
		stats:   map[string]core.MineStats{},
		fpBase:  map[string]string{},
	}
	for _, name := range []string{classUpload, classCold, classCached} {
		c.classes[name] = &classStats{}
	}
	return c
}

// run issues blocks of requests until seconds have passed since loop.
func (c *serveClient) run(loop time.Time, seconds int) {
	limit := int64(seconds) * 1e9
	for {
		rest := make([]string, 0, len(coldThresholds)+blockCached)
		for range coldThresholds {
			rest = append(rest, classCold)
		}
		for i := 0; i < blockCached; i++ {
			rest = append(rest, classCached)
		}
		c.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		for _, class := range append([]string{classUpload}, rest...) {
			if obs.Since(loop) >= limit {
				return
			}
			c.step(class)
		}
	}
}

// step issues one request of the class and counts it.
func (c *serveClient) step(class string) {
	c.attempted++
	var err error
	switch class {
	case classUpload:
		err = c.upload()
	case classCold:
		if len(c.pending) == 0 {
			err = errors.New("no uploaded dataset left to mine")
			break
		}
		k := c.pending[0]
		c.pending = c.pending[1:]
		err = c.mine(k, false)
	default:
		err = c.mine(c.mx.hot[c.rng.Intn(len(c.mx.hot))], true)
	}
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf("%s: %v", class, err))
		}
	}
}

// upload posts a fresh variant of a T10 sample, every other one as v2
// mapped bytes, and queues its cold keys.
func (c *serveClient) upload() error {
	n := c.uploads
	c.uploads++
	b := (n + c.id) % len(c.mx.bases)
	shift := int64(2*n+c.id+1) * shiftStep
	db := c.mx.bases[b].db.Rebase(shift)
	write := tsdb.Write
	if n%2 == 1 {
		write = tsdb.WriteMapped
	}
	var body bytes.Buffer
	if err := write(&body, db); err != nil {
		return err
	}
	ex, r, err := upload(c.mx.hc, c.mx.url, body.Bytes())
	cs := c.classes[classUpload]
	if ex.status != 0 {
		cs.latMS = append(cs.latMS, float64(ex.ns)/1e6)
		cs.sent += int64(body.Len())
		cs.received += int64(len(ex.body))
		cs.ingestMS += r.IngestMS
	}
	if err != nil {
		return err
	}
	if want := fmt.Sprintf("%016x", db.Fingerprint()); r.Fingerprint != want || r.Transactions != db.Len() {
		return fmt.Errorf("registered %s with %d transactions, want %s with %d", r.Fingerprint, r.Transactions, want, db.Len())
	}
	base := c.mx.bases[b].name
	c.fpBase[r.Fingerprint] = base
	for i, t := range coldThresholds {
		ref := c.mx.refs[b][i]
		c.pending = append(c.pending, mineKey{
			class: classCold, fp: r.Fingerprint, t: t, kind: base + "/" + t.String(),
			want: ref.digest(shift), count: len(ref.patterns),
		})
	}
	return nil
}

// mine posts one mine of k at parallelism servePar and records it.
func (c *serveClient) mine(k mineKey, wantCached bool) error {
	body, err := k.request(servePar, 0, c.mx.trace)
	if err != nil {
		return err
	}
	ex, r, err := mineOnce(c.mx.hc, c.mx.url, body, k, wantCached)
	cs := c.classes[k.class]
	if ex.status != 0 {
		cs.latMS = append(cs.latMS, float64(ex.ns)/1e6)
		cs.received += int64(len(ex.body))
	}
	if r != nil {
		cs.elapsedMS += r.ElapsedMS
		if !r.Cached {
			cs.miningMS += r.MiningMS
		}
		if _, seen := c.stats[k.kind]; !seen && r.Stats != nil && k.class == classCold {
			c.stats[k.kind] = *r.Stats
		}
	}
	return err
}
