package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/gen"
	"github.com/recurpat/rp/internal/tsdb"
)

// Dataset shapes. Each shape is one fixed sample of a paper generator; the
// run seed never changes the sample, only its surface (see transform), so
// the work a cell does is the same on every seed and a seed-to-seed
// difference in a timing measures the program, not the draw. Drawing a
// fresh Shop-14 sample per seed moved the mining cost of the three batch
// cells by -20%..+17%, far wider than any bound a gate could use.
type shape struct {
	name string
	make func() *tsdb.DB
}

var (
	// shop14 is the paper's Shop-14 at full scale, drawn exactly as
	// rpbench draws it for Table 7 (bench.Load("shop14", 1, 1)).
	shop14 = shape{"shop14", func() *tsdb.DB { return gen.Shop(gen.DefaultShop(2)) }}
	// twitterSmall is a reduced-scale Twitter: 2 days of the paper's
	// 1,000-hashtag dictionary with rare, bursty items.
	twitterSmall = shape{"twitter@0.02", func() *tsdb.DB { return gen.Twitter(gen.DefaultTwitter(3).Scale(0.02)) }}
	// questBases are the T10I4D100K-shaped samples behind serve-mix's
	// uploads and cold mines (10,000 transactions each).
	questBases = []shape{
		{"t10i4d10k-a", func() *tsdb.DB { return gen.Quest(gen.DefaultQuest(11).Scale(0.1)) }},
		{"t10i4d10k-b", func() *tsdb.DB { return gen.Quest(gen.DefaultQuest(12).Scale(0.1)) }},
	}
)

// thresholds is one (per, minPS%, minRec) setting of a mine.
type thresholds struct {
	Per          int64   `json:"per"`
	MinPSPercent float64 `json:"minPSPercent"`
	MinRec       int     `json:"minRec"`
}

func (t thresholds) String() string {
	return fmt.Sprintf("per=%d,minPS=%g%%,minRec=%d", t.Per, t.MinPSPercent, t.MinRec)
}

// options resolves t against db, as api.ToCoreOptions does on the server.
func (t thresholds) options(db *tsdb.DB) core.Options {
	return core.Options{Per: t.Per, MinPS: core.MinPSFromPercent(db, t.MinPSPercent), MinRec: t.MinRec}
}

// The Table 7 cells: Shop-14 along the per axis at minPS 0.2% and minRec
// 2, and one reduced-scale Twitter cell. shard-fleet mines the same Shop-14
// cells, and serve-mix's hot set is these cells too.
var (
	shopCells   = []thresholds{{360, 0.2, 2}, {720, 0.2, 2}, {1440, 0.2, 2}}
	twitterCell = thresholds{360, 10, 2}
	// coldThresholds are the settings serve-mix mines each upload under.
	coldThresholds = []thresholds{{360, 0.3, 1}, {720, 0.3, 2}}
)

// transform gives a fixed sample its seeded surface: items are renamed by
// a seeded permutation of the sample's own names and every timestamp
// moves by a seeded offset. Renaming and shifting leave the recurring
// patterns unchanged up to the same renaming and shift, and items keep
// their positions, so the dictionary order and the mining work are the
// sample's own while the bytes, names and fingerprints the program sees
// change. (Reordering items within transactions as well changed item-ID
// tie-breaks enough to move serve-mix's cold-mine cost between seeds.)
func transform(db *tsdb.DB, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	names := db.Dict.Names()
	perm := rng.Perm(len(names))
	shift := 1000 * (1 + rng.Int63n(1000))
	var b bytes.Buffer
	for _, tr := range db.Trans {
		b.WriteString(strconv.FormatInt(tr.TS+shift, 10))
		b.WriteByte('\t')
		for i, id := range tr.Items {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(names[perm[id]])
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// shapeSeed derives a per-shape transform seed from the run seed.
func shapeSeed(seed int64, name string) int64 {
	h := sha256.Sum256([]byte(strconv.FormatInt(seed, 10) + "/" + name))
	var s int64
	for _, c := range h[:8] {
		s = s<<8 | int64(c)
	}
	return s
}

// input is one generated dataset: the text bytes the program receives and
// the database the references are mined from.
type input struct {
	name string
	text []byte
	db   *tsdb.DB // parsed by the sequential scanner, never the timed parser
}

// makeInput generates a shape's sample and its seeded surface.
func makeInput(s shape, seed int64) (*input, error) {
	text := transform(s.make(), shapeSeed(seed, s.name))
	db, err := parseReference(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	return &input{name: s.name, text: text, db: db}, nil
}

// parseReference parses text through tsdb.Read's streaming scanner: a
// reader that hides its length keeps Read off the chunked parallel parser
// (tsdb.ReadBytes) that the timed loops and rpserved's ingest use.
func parseReference(text []byte) (*tsdb.DB, error) {
	return tsdb.Read(struct{ io.Reader }{bytes.NewReader(text)})
}

// reference is the expected output of one (dataset, thresholds) key.
type reference struct {
	db       *tsdb.DB
	patterns []core.Pattern
	maxLen   int
}

// mineReference mines a key with core.MineVertical, the repository's
// independent (Eclat-style) miner, which no timed loop runs.
func mineReference(db *tsdb.DB, t thresholds) (*reference, error) {
	res, err := core.MineVertical(db, t.options(db))
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", t, err)
	}
	return &reference{db: db, patterns: res.Patterns, maxLen: res.MaxLen()}, nil
}

// digest is the SHA-256 of a canonical (compact) JSON pattern list.
type digest [sha256.Size]byte

func (d digest) String() string { return hex.EncodeToString(d[:8]) }

// digest renders the reference as the canonical JSON pattern list with
// every interval moved by shift, and hashes it. The renderer is the
// benchmark's own, so a bug in api.PatternsFromCore or the encoder cannot
// hide in the reference.
func (r *reference) digest(shift int64) digest {
	return sha256.Sum256(renderPatterns(r.db, r.patterns, shift))
}

// renderPatterns writes patterns in the wire schema's field order
// (items, support, recurrence, intervals{start,end,ps}) as compact JSON.
func renderPatterns(db *tsdb.DB, ps []core.Pattern, shift int64) []byte {
	b := make([]byte, 0, 256*len(ps)+2)
	b = append(b, '[')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"items":[`...)
		for j, id := range p.Items {
			if j > 0 {
				b = append(b, ',')
			}
			name, _ := json.Marshal(db.Dict.Name(id)) // a string always marshals
			b = append(b, name...)
		}
		b = append(b, `],"support":`...)
		b = strconv.AppendInt(b, int64(p.Support), 10)
		b = append(b, `,"recurrence":`...)
		b = strconv.AppendInt(b, int64(p.Recurrence), 10)
		b = append(b, `,"intervals":[`...)
		for j, iv := range p.Intervals {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"start":`...)
			b = strconv.AppendInt(b, iv.Start+shift, 10)
			b = append(b, `,"end":`...)
			b = strconv.AppendInt(b, iv.End+shift, 10)
			b = append(b, `,"ps":`...)
			b = strconv.AppendInt(b, int64(iv.PS), 10)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	}
	return append(b, ']')
}

// patternsDigest hashes the "patterns" member of a JSON reply after
// compacting it, so indentation does not matter.
func patternsDigest(raw json.RawMessage) (digest, error) {
	var c bytes.Buffer
	if err := json.Compact(&c, raw); err != nil {
		return digest{}, err
	}
	return sha256.Sum256(c.Bytes()), nil
}
