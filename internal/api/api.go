// Package api is the versioned wire schema of the rpserved HTTP surface:
// the request and response bodies of POST /v1/mine and POST /v1/shard/mine,
// shared by the rpserved handlers and the shard HTTP client. It holds the
// one copy of request→Options validation so a remote shard peer can never
// mine under different semantics than its coordinator.
//
// Versioning rules:
//
//   - Every request and response carries an explicit schema version in its
//     "v" field. Version is the version this package speaks.
//   - A missing or zero "v" means v1: the field was introduced with v1, so
//     pre-versioning clients are v1 clients by definition.
//   - Decoders reject a version above Version at decode time with a
//     *VersionError, before any field is interpreted — a v2 client talking
//     to a v1 server gets a clean "speak v1" error, not a silently
//     misinterpreted mine.
//   - Within a version, unknown fields are a decode error
//     (DisallowUnknownFields): a field the server would silently drop is a
//     semantic difference between coordinator and shard, which is exactly
//     what the versioning exists to prevent.
//   - Adding a field with a zero-value-compatible meaning is a
//     same-version change; changing the meaning or default of an existing
//     field requires a version bump.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// Version is the wire schema version this package reads and writes.
const Version = 1

// VersionError reports a request or response whose schema version is newer
// than this build speaks.
type VersionError struct {
	Got int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("api: unsupported schema version %d (this build speaks v%d)", e.Got, Version)
}

// checkVersion validates a decoded "v" field: zero (absent) and Version
// pass, anything newer is a *VersionError, anything negative is malformed.
func checkVersion(v int) error {
	if v == 0 || v == Version {
		return nil
	}
	if v > Version {
		return &VersionError{Got: v}
	}
	return fmt.Errorf("api: malformed schema version %d", v)
}

// Item-order wire values. The empty string means the default
// (support-descending, the paper's order).
const (
	ItemOrderSupport = "support"
	ItemOrderLex     = "lex"
)

// ParseItemOrder maps the wire form of an item order to the core enum.
func ParseItemOrder(s string) (core.ItemOrder, error) {
	switch s {
	case "", ItemOrderSupport:
		return core.SupportDescending, nil
	case ItemOrderLex:
		return core.Lexicographic, nil
	default:
		return 0, fmt.Errorf("api: unknown itemOrder %q (want %q or %q)", s, ItemOrderSupport, ItemOrderLex)
	}
}

// ItemOrderString maps the core enum to its canonical wire form: the empty
// string for the default order, so requests round-trip without noise.
func ItemOrderString(o core.ItemOrder) string {
	if o == core.Lexicographic {
		return ItemOrderLex
	}
	return ""
}

// MineRequest is the JSON body of POST /v1/mine. Exactly one of minPS and
// minPSPercent should be set; minPSPercent is resolved against the target
// database's size (ToCoreOptions). Exactly one of db and dataset addresses
// the data; the server enforces the exclusivity.
type MineRequest struct {
	V            int     `json:"v,omitempty"`            // schema version; 0 = 1
	DB           string  `json:"db,omitempty"`           // database name; optional when only one is served
	Dataset      string  `json:"dataset,omitempty"`      // registered dataset fingerprint (16 hex digits); alternative to db
	Per          int64   `json:"per"`                    // period threshold
	MinPS        int     `json:"minPS,omitempty"`        // absolute minimum periodic support
	MinPSPercent float64 `json:"minPSPercent,omitempty"` // minPS as a % of |TDB| (used when minPS is 0)
	MinRec       int     `json:"minRec,omitempty"`       // minimum recurrence; defaults to 1
	MaxLen       int     `json:"maxLen,omitempty"`       // pattern length cap; 0 = unlimited
	Parallelism  int     `json:"parallelism,omitempty"`  // mining parallelism; servers clamp to their cap
	CollectStats bool    `json:"collectStats,omitempty"` // include search statistics in the response
	// ItemOrder selects the RP-tree item ordering: "" or "support" for the
	// paper's support-descending order, "lex" for lexicographic. Output is
	// identical either way, but the ablation knob must travel the wire so
	// a shard peer mines under its coordinator's exact options.
	ItemOrder string `json:"itemOrder,omitempty"`
	// DisableErecPruning turns off the Erec candidate bound (the pruning
	// ablation). Output is unchanged; search statistics are not.
	DisableErecPruning bool `json:"disableErecPruning,omitempty"`
}

// Interval is the wire form of a periodic interval.
type Interval struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	PS    int   `json:"ps"`
}

// Pattern is the wire form of one recurring pattern.
type Pattern struct {
	Items      []string   `json:"items"`
	Support    int        `json:"support"`
	Recurrence int        `json:"recurrence"`
	Intervals  []Interval `json:"intervals"`
}

// MineResponse is the JSON body of a successful POST /v1/mine.
type MineResponse struct {
	V         int             `json:"v"`
	DB        string          `json:"db"`
	Count     int             `json:"count"`
	Cached    bool            `json:"cached"`
	ElapsedMS float64         `json:"elapsedMS"` // this request's wall time, queueing included
	MiningMS  float64         `json:"miningMS"`  // the producing mine's wall time (historic on cache hits)
	Patterns  []Pattern       `json:"patterns"`
	Stats     *core.MineStats `json:"stats,omitempty"`
}

// ShardMineRequest is the JSON body of POST /v1/shard/mine: one shard task
// of a scatter-gather mine. The embedded mine request carries the options;
// db/dataset addressing works as in /v1/mine, and a coordinator normally
// addresses by Fingerprint alone so peers resolve their own copy whatever
// they named it.
type ShardMineRequest struct {
	MineRequest
	// Shard and Shards are the task's ShardSpec: mine the suffix items
	// whose RP-list rank r has r mod shards == shard.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Fingerprint, when set, is the expected content fingerprint (16 hex
	// digits) of the database to mine. A peer that resolves a database
	// with any other fingerprint must refuse the task: shards of one mine
	// must agree on the bytes, not just on a name.
	Fingerprint string `json:"fingerprint,omitempty"`
	// RequestID is the coordinator's request ID, also sent as the
	// X-Request-Id header. Peers journal the task under it, so the
	// coordinator's and the peer's /debug/requests entries are joinable.
	// Optional with a zero-value-compatible meaning (the peer mints its
	// own), so it is a same-version (v1) addition.
	RequestID string `json:"requestID,omitempty"`
	// Trace asks the peer to record its run's span timeline and return it
	// in ShardMineResponse.Timeline, so the coordinator can graft the
	// peer's lane into one fleet-wide flight record. Optional: absent
	// means untraced, exactly the pre-tracing behaviour.
	Trace bool `json:"trace,omitempty"`
}

// ShardMineResponse is the JSON body of a successful POST /v1/shard/mine.
type ShardMineResponse struct {
	V           int             `json:"v"`
	Fingerprint string          `json:"fingerprint"` // of the database actually mined
	Shard       int             `json:"shard"`
	Shards      int             `json:"shards"`
	Count       int             `json:"count"`
	MiningMS    float64         `json:"miningMS"`
	Patterns    []Pattern       `json:"patterns"`
	Stats       *core.MineStats `json:"stats,omitempty"`
	// Phases is the peer's per-phase attribution of this task (only phases
	// that observed time or work), whether or not a timeline was requested
	// — it feeds the coordinator's per-peer per-phase metrics.
	Phases []obs.PhaseStat `json:"phases,omitempty"`
	// ElapsedNS is how long the peer spent handling the task, queueing
	// included — the clock reference the coordinator aligns Timeline
	// against (see obs.PeerTimeline.AlignOffset).
	ElapsedNS int64 `json:"elapsedNS,omitempty"`
	// Timeline is the peer's recorded span timeline, present only when the
	// request set Trace and the peer retains timelines.
	Timeline *obs.TimelineSnapshot `json:"timeline,omitempty"`
}

// ErrorResponse is the JSON body of every failed request.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DecodeMineRequest decodes one MineRequest from r, rejecting unknown
// fields and unsupported schema versions. Transport-level errors
// (http.MaxBytesError) pass through unwrapped for the caller's errors.As.
func DecodeMineRequest(r io.Reader) (*MineRequest, error) {
	var req MineRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := checkVersion(req.V); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeShardMineRequest is DecodeMineRequest for shard tasks.
func DecodeShardMineRequest(r io.Reader) (*ShardMineRequest, error) {
	var req ShardMineRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := checkVersion(req.V); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeShardMineResponse decodes a peer's shard result, with the same
// version check as the request decoders.
func DecodeShardMineResponse(r io.Reader) (*ShardMineResponse, error) {
	var resp ShardMineResponse
	if err := decodeStrict(r, &resp); err != nil {
		return nil, err
	}
	if err := checkVersion(resp.V); err != nil {
		return nil, err
	}
	return &resp, nil
}

// decodeStrict decodes exactly one JSON value with unknown fields
// disallowed, and rejects trailing data.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("api: trailing data after request body")
	}
	return nil
}

// ToCoreOptions resolves the request's thresholds into validated
// core.Options against a database of dbLen transactions: the percentage
// form of minPS resolves here, minRec defaults to 1, the item order
// parses, and core's Options.Validate runs — so every entry point
// (rpserved, the shard endpoint, future clients) applies identical
// validation and reports identical error text. Parallelism is carried
// through unclamped; server-side caps are the server's policy, not the
// schema's.
func (req *MineRequest) ToCoreOptions(dbLen int) (core.Options, error) {
	o := core.Options{
		Per:                req.Per,
		MinPS:              req.MinPS,
		MinRec:             req.MinRec,
		MaxLen:             req.MaxLen,
		Parallelism:        req.Parallelism,
		CollectStats:       req.CollectStats,
		DisableErecPruning: req.DisableErecPruning,
	}
	order, err := ParseItemOrder(req.ItemOrder)
	if err != nil {
		return core.Options{}, err
	}
	o.ItemOrder = order
	if o.MinPS == 0 && req.MinPSPercent > 0 {
		o.MinPS = core.MinPSForLen(dbLen, req.MinPSPercent)
	}
	if o.MinRec == 0 {
		o.MinRec = 1
	}
	if err := o.Validate(); err != nil {
		return core.Options{}, err
	}
	return o, nil
}

// FromCoreOptions renders resolved options back into a request, the form a
// coordinator ships to its shard peers. Absolute thresholds only: the
// percentage form was resolved against a database size the peer must not
// re-resolve. The Trace field does not travel.
func FromCoreOptions(o core.Options) MineRequest {
	return MineRequest{
		V:                  Version,
		Per:                o.Per,
		MinPS:              o.MinPS,
		MinRec:             o.MinRec,
		MaxLen:             o.MaxLen,
		Parallelism:        o.Parallelism,
		CollectStats:       o.CollectStats,
		ItemOrder:          ItemOrderString(o.ItemOrder),
		DisableErecPruning: o.DisableErecPruning,
	}
}

// PatternsFromCore renders ItemID-level patterns into their wire form,
// resolving item names against db's dictionary.
func PatternsFromCore(db *tsdb.DB, patterns []core.Pattern) []Pattern {
	out := make([]Pattern, len(patterns))
	for i, p := range patterns {
		ivs := make([]Interval, len(p.Intervals))
		for j, iv := range p.Intervals {
			ivs[j] = Interval{Start: iv.Start, End: iv.End, PS: iv.PS}
		}
		out[i] = Pattern{
			Items:      db.PatternNames(p.Items),
			Support:    p.Support,
			Recurrence: p.Recurrence,
			Intervals:  ivs,
		}
	}
	return out
}

// PatternsToCore maps wire patterns back to ItemID-level patterns against
// db's dictionary — the gather half of a remote shard exchange, where the
// coordinator and the peer hold the same database (same fingerprint) and
// therefore the same dictionary. Unknown item names are an error: they
// mean the fingerprints lied.
func PatternsToCore(db *tsdb.DB, patterns []Pattern) ([]core.Pattern, error) {
	out := make([]core.Pattern, len(patterns))
	for i, p := range patterns {
		items := make([]tsdb.ItemID, len(p.Items))
		for j, name := range p.Items {
			id, ok := db.Dict.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("api: pattern item %q not in the local dictionary", name)
			}
			items[j] = id
		}
		ivs := make([]core.Interval, len(p.Intervals))
		for j, iv := range p.Intervals {
			ivs[j] = core.Interval{Start: iv.Start, End: iv.End, PS: iv.PS}
		}
		out[i] = core.Pattern{
			Items:      items,
			Support:    p.Support,
			Recurrence: p.Recurrence,
			Intervals:  ivs,
		}
	}
	return out, nil
}
