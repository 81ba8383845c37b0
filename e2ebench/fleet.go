package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
)

// fleetShards is the coordinator's -shards: one task per peer.
const fleetShards = 2

// fleetMaxLen is the maxLen of shard-fleet's first request; request i
// asks for fleetMaxLen+i. maxLen is part of the result-cache key, and
// every limit lies above the cells' longest pattern (checked against the
// reference), so each request does the work of an unlimited mine under a
// key the coordinator has not seen, and scatters.
const fleetMaxLen = 100

// fleet is shard-fleet's rpserved processes: the peers, then the
// coordinator.
type fleet []*server

func (f fleet) coordinator() *server { return f[len(f)-1] }

func (f fleet) stop() {
	for _, s := range f {
		s.stop()
	}
}

// status sums VmHWM (MB) and CPU time (ms) over the fleet's processes.
func (f fleet) status() (peakMB, cpuMS float64, err error) {
	for _, s := range f {
		p, c, err := procStatus(s.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		peakMB += p
		cpuMS += c
	}
	return peakMB, cpuMS, nil
}

// fleetSetup generates and serialises Shop-14, then starts two peers and a
// coordinator over them (-peers, -shards 2), each loading it with -db.
func fleetSetup(cfg config) (fleet, error) {
	file := filepath.Join(cfg.work, shop14.name+".tdb")
	if err := os.WriteFile(file, transform(shop14.make(), shapeSeed(cfg.seed, shop14.name)), 0o644); err != nil {
		return nil, err
	}
	var f fleet
	var peers []string
	for i := 1; i <= fleetShards; i++ {
		p, err := startServer(cfg.rpserved, cfg.work, fmt.Sprintf("peer%d", i), "-db", "shop="+file)
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, p)
		peers = append(peers, p.url)
	}
	c, err := startServer(cfg.rpserved, cfg.work, "coordinator", "-db", "shop="+file,
		"-peers", strings.Join(peers, ","), "-shards", strconv.Itoa(fleetShards))
	if err != nil {
		f.stop()
		return nil, err
	}
	return append(f, c), nil
}

// fleetSample is one scatter's client latency and reply fields.
type fleetSample struct {
	latMS, elapsedMS, miningMS float64
	bytes                      int
}

// runShardFleet is the shard-fleet workload.
func runShardFleet(cfg config) (outcome, error) {
	shop, err := makeInput(shop14, cfg.seed)
	if err != nil {
		return outcome{}, err
	}
	describe(cfg.log, shop)
	keys := make([]mineKey, len(shopCells))
	for i, t := range shopCells {
		ref, err := mineReference(shop.db, t)
		if err != nil {
			return outcome{}, err
		}
		if ref.maxLen >= fleetMaxLen {
			return outcome{}, fmt.Errorf("%s: a pattern of length %d reaches the maxLen range", t, ref.maxLen)
		}
		keys[i] = mineKey{class: "shard_mine", db: "shop", t: t, kind: shop14.name + "/" + t.String(), want: ref.digest(0), count: len(ref.patterns)}
		fmt.Fprintf(cfg.log, "key %s: reference %d patterns, digest %s\n", keys[i].kind, keys[i].count, keys[i].want)
	}

	var out outcome
	var f fleet
	for i := 0; i < setupRepeats; i++ {
		t0 := obs.Now()
		if f, err = fleetSetup(cfg); err != nil {
			return outcome{}, err
		}
		out.setups = append(out.setups, float64(obs.Since(t0))/1e9)
		if i < setupRepeats-1 {
			f.stop()
		}
	}
	defer f.stop()
	hc := httpClient()
	url := f.coordinator().url
	var before fleetStats
	if cfg.trace {
		if err := getJSON(hc, url+"/v1/fleet/stats", &before); err != nil {
			return outcome{}, err
		}
	}
	_, cpu0, err := f.status()
	if err != nil {
		return outcome{}, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var order []int
	var samples []fleetSample
	stats := map[string]core.MineStats{}
	limit := int64(cfg.seconds) * 1e9
	loop := obs.Now()
	for i := 0; obs.Since(loop) < limit; i++ {
		if len(order) == 0 {
			order = rng.Perm(len(keys))
		}
		k := keys[order[0]]
		order = order[1:]
		out.attempted++
		body, err := k.request(0, fleetMaxLen+i, cfg.trace)
		if err != nil {
			return outcome{}, err
		}
		ex, r, err := mineOnce(hc, url, body, k, false)
		if ex.status != 0 {
			s := fleetSample{latMS: float64(ex.ns) / 1e6, bytes: len(ex.body)}
			if r != nil {
				s.elapsedMS, s.miningMS = r.ElapsedMS, r.MiningMS
				if _, seen := stats[k.kind]; !seen && r.Stats != nil {
					stats[k.kind] = *r.Stats
				}
			}
			samples = append(samples, s)
			out.opMS = append(out.opMS, s.latMS)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(cfg.log, "FAILED: %s maxLen=%d: %v\n", k.kind, fleetMaxLen+i, err)
		}
	}
	out.loopS = float64(obs.Since(loop)) / 1e9
	peak, cpu1, err := f.status()
	if err != nil {
		return outcome{}, err
	}
	out.peakMB, out.cpuMS = peak, cpu1-cpu0
	out.e2e = map[string]metric{"shard_mine_ms_p50": {median(out.opMS), "ms"}}
	fmt.Fprintf(cfg.log, "%d scatters; p90 %s\n", len(out.opMS), p90Note(out.opMS))
	if cfg.trace {
		var patterns float64
		for _, k := range keys {
			patterns += float64(k.count) / float64(len(keys))
		}
		if out.layers, err = fleetLayers(cfg.log, hc, f, before, samples); err != nil {
			return outcome{}, err
		}
		addWork(out.layers, stats, patterns)
	}
	return out, nil
}
