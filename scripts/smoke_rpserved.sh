#!/usr/bin/env bash
# smoke_rpserved.sh — end-to-end lifecycle test of the mining service:
# build, start on an ephemeral port, health-check, mine twice (the second
# must be a cache hit), verify the stats counters, walk the request
# journal (/debug/requests, HTML and JSON) and validate a downloaded
# per-request trace with rptrace, check the journal carries per-request
# cost, pull an on-demand CPU profile from /debug/pprof, exercise the dataset
# registry (upload → mine by fingerprint → cached repeat → delete, with
# ingest-phase attribution visible in the journal and /metrics), then
# SIGTERM and check the drain path exits cleanly. Needs curl; run from
# anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/rpgen" ./cmd/rpgen
go build -o "$workdir/rpserved" ./cmd/rpserved
go build -o "$workdir/rptrace" ./cmd/rptrace

echo "== generate a small dataset"
"$workdir/rpgen" -dataset shop14 -scale 0.02 -out "$workdir/shop.tdb"

echo "== start rpserved"
"$workdir/rpserved" -db shop="$workdir/shop.tdb" -listen 127.0.0.1:0 \
    -pprof \
    >"$workdir/serve.log" 2>&1 &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^rpserved: listening on //p' "$workdir/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$workdir/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "server never reported its address"; cat "$workdir/serve.log"; exit 1; }
echo "   serving on $addr"

echo "== healthz"
grep -q ok <<<"$(curl -sf "http://$addr/healthz")"

echo "== mine (cold)"
req='{"db":"shop","per":60,"minPSPercent":2,"minRec":1,"maxLen":2}'
cold=$(curl -sf "http://$addr/v1/mine" -d "$req")
grep -q '"cached":false' <<<"$cold" || { echo "first mine was unexpectedly cached: $cold"; exit 1; }

echo "== mine (cached)"
warm=$(curl -sf "http://$addr/v1/mine" -d "$req")
grep -q '"cached":true' <<<"$warm" || { echo "second mine missed the cache: $warm"; exit 1; }

echo "== stats record the hit"
stats=$(curl -sf "http://$addr/v1/stats")
grep -q '"cacheHits":1' <<<"$stats" || { echo "stats missing cacheHits=1: $stats"; exit 1; }
grep -q '"mined":1' <<<"$stats" || { echo "stats missing mined=1: $stats"; exit 1; }

echo "== stats expose histogram bucket bounds"
grep -q '"leNanos"' <<<"$stats" || { echo "stats buckets missing leNanos bounds: $stats"; exit 1; }

echo "== /metrics scrape"
metrics=$(curl -sf "http://$addr/metrics")
grep -q '^rpserved_mining_seconds_bucket{le="+Inf"} 1$' <<<"$metrics" \
    || { echo "metrics missing the mining-time histogram: $metrics"; exit 1; }
grep -q '^rpserved_phase_seconds_bucket{phase="mine",le="+Inf"} 1$' <<<"$metrics" \
    || { echo "metrics missing the mine phase histogram: $metrics"; exit 1; }
grep -q '^rpserved_cache_hits_total 1$' <<<"$metrics" \
    || { echo "metrics missing the cache-hit counter: $metrics"; exit 1; }
grep -q '^rpserved_cache_hit_ratio ' <<<"$metrics" \
    || { echo "metrics missing the cache-hit-ratio gauge: $metrics"; exit 1; }
grep -q '^go_goroutines ' <<<"$metrics" \
    || { echo "metrics missing the goroutine gauge: $metrics"; exit 1; }
grep -q '^go_heap_inuse_bytes ' <<<"$metrics" \
    || { echo "metrics missing the heap gauge: $metrics"; exit 1; }

echo "== request journal (JSON)"
journal=$(curl -sf "http://$addr/debug/requests?format=json")
grep -q '"total":2' <<<"$journal" || { echo "journal total != 2: $journal"; exit 1; }
grep -q '"outcome":"ok"' <<<"$journal" || { echo "journal missing ok entry: $journal"; exit 1; }
grep -q '"outcome":"cache-hit"' <<<"$journal" || { echo "journal missing cache-hit entry: $journal"; exit 1; }
grep -q '"phase":"mine"' <<<"$journal" || { echo "journal entries lack phase breakdowns: $journal"; exit 1; }

echo "== request journal (HTML)"
html=$(curl -sf "http://$addr/debug/requests")
grep -q '<title>rpserved request journal</title>' <<<"$html" \
    || { echo "journal HTML page malformed: $html"; exit 1; }
grep -q 'cache-hit' <<<"$html" || { echo "journal HTML missing the cache-hit row: $html"; exit 1; }

echo "== per-request trace validates"
rid=$(grep -o '"id":"[^"]*"' <<<"$journal" | head -1 | sed 's/"id":"\(.*\)"/\1/')
[ -n "$rid" ] || { echo "no request id found in journal: $journal"; exit 1; }
curl -sf "http://$addr/debug/requests/trace?id=$rid" -o "$workdir/run.json"
"$workdir/rptrace" "$workdir/run.json"

echo "== journal reports per-request cost"
grep -q '"allocBytes":[1-9]' <<<"$journal" \
    || { echo "no journal row reports nonzero alloc bytes: $journal"; exit 1; }

echo "== on-demand CPU profile"
curl -sf "http://$addr/debug/pprof/profile?seconds=1" -o "$workdir/cpu.pprof"
[ -s "$workdir/cpu.pprof" ] || { echo "downloaded CPU profile is empty"; exit 1; }
gzip -t "$workdir/cpu.pprof" || { echo "downloaded CPU profile is not gzipped pprof"; exit 1; }

echo "== access log lines"
grep -q 'outcome=ok' "$workdir/serve.log" || { echo "missing ok access-log line"; cat "$workdir/serve.log"; exit 1; }
grep -q 'outcome=cache-hit' "$workdir/serve.log" || { echo "missing cache-hit access-log line"; cat "$workdir/serve.log"; exit 1; }

echo "== dataset upload"
up=$(curl -sf "http://$addr/v1/datasets" --data-binary @"$workdir/shop.tdb")
fp=$(grep -o '"fingerprint":"[0-9a-f]*"' <<<"$up" | head -1 | sed 's/.*"\([0-9a-f]*\)"$/\1/')
[ ${#fp} -eq 16 ] || { echo "upload returned no fingerprint: $up"; exit 1; }
grep -q '"existing":false' <<<"$up" || { echo "fresh upload marked existing: $up"; exit 1; }
echo "   registered $fp"

echo "== dataset listing"
ls_json=$(curl -sf "http://$addr/v1/datasets")
grep -q "\"fingerprint\":\"$fp\"" <<<"$ls_json" || { echo "listing missing $fp: $ls_json"; exit 1; }
grep -q '"count":1' <<<"$ls_json" || { echo "listing count != 1: $ls_json"; exit 1; }

echo "== mine by fingerprint hits the named mine's cache entry"
# The uploaded file is the same content as the preloaded "shop" database,
# and the result cache is keyed by content fingerprint — so mining the
# dataset with the options already mined under the name is a cache hit
# across the two addressing schemes.
xnaming=$(curl -sf "http://$addr/v1/mine" -d "{\"dataset\":\"$fp\",\"per\":60,\"minPSPercent\":2,\"minRec\":1,\"maxLen\":2}")
grep -q '"cached":true' <<<"$xnaming" || { echo "fp mine of identical content+options missed the cache: $xnaming"; exit 1; }
cold_count=$(grep -o '"count":[0-9]*' <<<"$cold" | head -1)
fp_count=$(grep -o '"count":[0-9]*' <<<"$xnaming" | head -1)
[ "$cold_count" = "$fp_count" ] || { echo "fp mine found $fp_count, named mine $cold_count"; exit 1; }

echo "== mine by fingerprint (cold: new options)"
fpreq="{\"dataset\":\"$fp\",\"per\":60,\"minPSPercent\":2,\"minRec\":1,\"maxLen\":3}"
fpcold=$(curl -sf "http://$addr/v1/mine" -d "$fpreq")
grep -q '"cached":false' <<<"$fpcold" || { echo "first fp mine with new options was cached: $fpcold"; exit 1; }

echo "== mine by fingerprint (cached: no body, no parse)"
fpwarm=$(curl -sf "http://$addr/v1/mine" -d "$fpreq")
grep -q '"cached":true' <<<"$fpwarm" || { echo "repeat fp mine missed the cache: $fpwarm"; exit 1; }

echo "== ingest phase attributed to the upload only"
journal2=$(curl -sf "http://$addr/debug/requests?format=json")
grep -q '"outcome":"uploaded"' <<<"$journal2" || { echo "journal missing the upload: $journal2"; exit 1; }
n_ingest=$(grep -o '"phase":"ingest"' <<<"$journal2" | wc -l || true)
[ "$n_ingest" -eq 1 ] || { echo "want exactly 1 ingest phase entry (the upload), got $n_ingest: $journal2"; exit 1; }

echo "== registry metrics"
metrics2=$(curl -sf "http://$addr/metrics")
grep -q '^rpserved_uploads_total 1$' <<<"$metrics2" || { echo "metrics missing uploads counter: $metrics2"; exit 1; }
grep -q '^rpserved_datasets 1$' <<<"$metrics2" || { echo "metrics missing datasets gauge: $metrics2"; exit 1; }
grep -q '^rpserved_phase_seconds_bucket{phase="ingest",le="+Inf"} 1$' <<<"$metrics2" \
    || { echo "metrics missing the ingest phase histogram: $metrics2"; exit 1; }

echo "== dataset delete"
del_status=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://$addr/v1/datasets/$fp")
[ "$del_status" = "204" ] || { echo "delete returned $del_status"; exit 1; }
gone_status=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/mine" -d "$fpreq")
[ "$gone_status" = "404" ] || { echo "mine after delete returned $gone_status"; exit 1; }

echo "== graceful shutdown"
kill -TERM "$server_pid"
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "server did not exit after SIGTERM"; cat "$workdir/serve.log"; exit 1
fi
wait "$server_pid" 2>/dev/null || { echo "server exited non-zero"; cat "$workdir/serve.log"; exit 1; }
grep -q "rpserved: stopped" "$workdir/serve.log" || { echo "missing clean-stop log line"; cat "$workdir/serve.log"; exit 1; }
server_pid=""

echo "== ok"
