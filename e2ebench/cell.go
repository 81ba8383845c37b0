package main

import (
	"context"
	"encoding/json"
	"runtime/metrics"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// batchCell is one Table 7 cell of batch-table7 as handed to the worker:
// the text TDB file, its thresholds and the reference digest.
type batchCell struct {
	Name       string     `json:"name"`
	File       string     `json:"file"`
	Thresholds thresholds `json:"thresholds"`
	Digest     string     `json:"digest"` // hex SHA-256 of the canonical pattern list
	Patterns   int        `json:"patterns"`

	text []byte
	want digest
}

// cellOut is what one cell of one pass did. Times are ns; the phase
// report, stats and allocation are filled on traced passes only.
type cellOut struct {
	parse, mine, convert, encode int64
	phases                       obs.PhaseReport
	stats                        core.MineStats
	allocBytes                   uint64
	responseBytes                int
	err                          error
}

// heapAllocs reads the cumulative heap bytes allocated by the process.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runCell is the timed path of one cell: parse the text bytes
// (tsdb.ReadBytes), mine sequentially (core.MineContext, Parallelism 1),
// render (api.PatternsFromCore) and JSON-encode the api.MineResponse. The
// output check runs after the clock stops. A traced cell attaches an
// obs.Trace and collects MineStats and the heap bytes the mine allocated.
func runCell(c *batchCell, traced bool) cellOut {
	var out cellOut
	t0 := obs.Now()
	db, err := tsdb.ReadBytes(c.text)
	out.parse = obs.Since(t0)
	if err != nil {
		out.err = err
		return out
	}
	o := c.Thresholds.options(db)
	o.Parallelism = 1
	var a0 uint64
	if traced {
		o.Trace = obs.NewTrace()
		o.CollectStats = true
		a0 = heapAllocs()
	}
	t1 := obs.Now()
	res, err := core.MineContext(context.Background(), db, o)
	out.mine = obs.Since(t1)
	if traced {
		out.allocBytes = heapAllocs() - a0
		out.phases = o.Trace.Report()
	}
	if err != nil {
		out.err = err
		return out
	}
	t2 := obs.Now()
	pats := api.PatternsFromCore(db, res.Patterns)
	out.convert = obs.Since(t2)
	t3 := obs.Now()
	body, err := json.Marshal(api.MineResponse{V: api.Version, DB: c.Name, Count: len(pats), Patterns: pats})
	out.encode = obs.Since(t3)
	if err != nil {
		out.err = err
		return out
	}
	out.stats = res.Stats
	out.responseBytes = len(body)
	out.err = checkMineReply(body, c.want, c.Patterns)
	return out
}
