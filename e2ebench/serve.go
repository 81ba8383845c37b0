package main

import (
	"fmt"
	"sync"

	"github.com/recurpat/rp/internal/obs"
)

// runServeMix is the serve-mix workload.
func runServeMix(cfg config) (outcome, error) {
	shop, err := makeInput(shop14, cfg.seed)
	if err != nil {
		return outcome{}, err
	}
	mx := &serveMix{hc: httpClient(), trace: cfg.trace}
	for _, t := range shopCells {
		ref, err := mineReference(shop.db, t)
		if err != nil {
			return outcome{}, err
		}
		mx.hot = append(mx.hot, mineKey{class: classCached, t: t, kind: shop14.name + "/" + t.String(), want: ref.digest(0), count: len(ref.patterns)})
	}
	for _, s := range questBases {
		in, err := makeInput(s, cfg.seed)
		if err != nil {
			return outcome{}, err
		}
		var refs []*reference
		for _, t := range coldThresholds {
			ref, err := mineReference(in.db, t)
			if err != nil {
				return outcome{}, err
			}
			refs = append(refs, ref)
			fmt.Fprintf(cfg.log, "cold key %s/%s: reference %d patterns\n", s.name, t, len(ref.patterns))
		}
		mx.bases = append(mx.bases, in)
		mx.refs = append(mx.refs, refs)
	}
	describe(cfg.log, append([]*input{shop}, mx.bases...)...)
	for _, k := range mx.hot {
		fmt.Fprintf(cfg.log, "hot key %s: reference %d patterns, digest %s\n", k.kind, k.count, k.want)
	}

	var out outcome
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		t0 := obs.Now()
		if srv, err = serveSetup(cfg, mx); err != nil {
			return outcome{}, err
		}
		out.setups = append(out.setups, float64(obs.Since(t0))/1e9)
		if i < setupRepeats-1 {
			srv.stop()
		}
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid
	var before serveSnapshot
	if cfg.trace {
		if before, err = snapshotServe(mx.hc, mx.url); err != nil {
			return outcome{}, err
		}
	}
	_, cpu0, err := procStatus(pid)
	if err != nil {
		return outcome{}, err
	}
	clients := []*serveClient{newServeClient(mx, 0, cfg.seed), newServeClient(mx, 1, cfg.seed)}
	var wg sync.WaitGroup
	loop := obs.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			c.run(loop, cfg.seconds)
		}(c)
	}
	wg.Wait()
	out.loopS = float64(obs.Since(loop)) / 1e9
	peak, cpu1, err := procStatus(pid)
	if err != nil {
		return outcome{}, err
	}
	out.peakMB, out.cpuMS = peak, cpu1-cpu0

	classes := map[string]*classStats{classUpload: {}, classCold: {}, classCached: {}}
	for _, c := range clients {
		out.attempted += c.attempted
		out.failed += c.failed
		for _, e := range c.errs {
			fmt.Fprintln(cfg.log, "FAILED:", e)
		}
		for name, cs := range c.classes {
			classes[name].merge(cs)
		}
	}
	for _, name := range []string{classUpload, classCold, classCached} {
		cs := classes[name]
		out.opMS = append(out.opMS, cs.latMS...)
		fmt.Fprintf(cfg.log, "%-12s %5d requests, p50 %.3f ms, p90 %s\n", name, len(cs.latMS), median(cs.latMS), p90Note(cs.latMS))
	}
	cold, cached := classes[classCold].latMS, classes[classCached].latMS
	out.e2e = map[string]metric{
		"serve_rps":          {float64(out.attempted) / out.loopS, "1/s"},
		"mine_cold_ms_p50":   {median(cold), "ms"},
		"mine_cold_ms_p90":   {p90(cold), "ms"},
		"mine_cached_ms_p50": {median(cached), "ms"},
		"mine_cached_ms_p90": {p90(cached), "ms"},
		"upload_ms_p50":      {median(classes[classUpload].latMS), "ms"},
	}
	if cfg.trace {
		if out.layers, err = serveLayers(cfg.log, mx, before, classes, clients, out.opMS); err != nil {
			return outcome{}, err
		}
	}
	return out, nil
}

// serveSetup is serve-mix's set-up: generate and serialise Shop-14,
// start a registry-only rpserved, upload Shop-14 and mine the hot set
// once, so the loop finds its keys cached. It points mx at the server.
func serveSetup(cfg config, mx *serveMix) (*server, error) {
	text := transform(shop14.make(), shapeSeed(cfg.seed, shop14.name))
	srv, err := startServer(cfg.rpserved, cfg.work, "rpserved")
	if err != nil {
		return nil, err
	}
	mx.url = srv.url
	_, r, err := upload(mx.hc, srv.url, text)
	for i := range mx.hot {
		if err != nil {
			break
		}
		mx.hot[i].fp = r.Fingerprint
		var body []byte
		if body, err = mx.hot[i].request(servePar, 0, false); err == nil {
			_, _, err = mineOnce(mx.hc, srv.url, body, mx.hot[i], false)
		}
	}
	if err != nil {
		srv.stop()
		return nil, fmt.Errorf("serve-mix set-up: %w", err)
	}
	return srv, nil
}
