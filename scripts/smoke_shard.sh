#!/usr/bin/env bash
# smoke_shard.sh — end-to-end test of sharded scatter-gather mining: a
# local `rpmine -shards 3` run must print byte-identical patterns to the
# direct mine, and an rpserved coordinator scattering over two real peer
# servers must return the same /v1/mine response a single-box server does
# (modulo timing fields), with the per-peer shard counters visible in
# /metrics, the peers' journals joined on the coordinator's request ID
# holding each planned task exactly once with its own mine time, and
# /v1/fleet/stats reaching every peer.
# With one peer stopped, a new mine through the coordinator must fail over
# to the survivor and still match its single-box response.
# The real binaries' access logs must show served shard tasks on every peer
# and the served mine on the coordinator, and a peer must refuse an
# oversized shard-task body with 413. Needs curl; run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

# start_server <logfile> <args...> — launches rpserved from this shell (not
# a $(...) subshell, so cleanup and the shutdown step see its pid) and sets
# addr to the address it reports.
start_server() {
    local log=$1; shift
    : >"$log"
    "$workdir/rpserved" "$@" -listen 127.0.0.1:0 >"$log" 2>&1 &
    local pid=$!
    pids+=("$pid")
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^rpserved: listening on //p' "$log")
        [ -n "$addr" ] && return 0
        kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; return 1; }
        sleep 0.1
    done
    echo "server never reported its address" >&2
    cat "$log" >&2
    return 1
}

# wait_log <pattern> <logfile> — waits for an access-log line matching the
# extended regex; handlers write the line just after the response.
wait_log() {
    for _ in $(seq 1 50); do
        grep -qE "$1" "$2" && return 0
        sleep 0.1
    done
    echo "$2 has no line matching '$1':" >&2
    cat "$2" >&2
    return 1
}

echo "== build"
go build -o "$workdir/rpgen" ./cmd/rpgen
go build -o "$workdir/rpmine" ./cmd/rpmine
go build -o "$workdir/rpserved" ./cmd/rpserved

echo "== generate a small dataset"
"$workdir/rpgen" -dataset shop14 -scale 0.02 -out "$workdir/shop.tdb"

echo "== rpmine -shards 3 is byte-identical to the direct mine"
"$workdir/rpmine" -input "$workdir/shop.tdb" -per 60 -minps-pct 2 -minrec 1 >"$workdir/direct.txt"
"$workdir/rpmine" -input "$workdir/shop.tdb" -per 60 -minps-pct 2 -minrec 1 -shards 3 >"$workdir/sharded.txt"
diff "$workdir/direct.txt" "$workdir/sharded.txt" \
    || { echo "sharded rpmine output diverges from the direct mine"; exit 1; }
[ -s "$workdir/direct.txt" ] || { echo "direct mine found no patterns; smoke proves nothing"; exit 1; }

echo "== start two peers and a coordinator"
start_server "$workdir/peer1.log" -db shop="$workdir/shop.tdb"; p1=$addr
start_server "$workdir/peer2.log" -db shop="$workdir/shop.tdb"; p2=$addr; p2pid=${pids[-1]}
echo "   peers on $p1, $p2"
start_server "$workdir/coord.log" -db shop="$workdir/shop.tdb" \
    -peers "http://$p1,http://$p2" -shards 3
coord=$addr
echo "   coordinator on $coord"

echo "== scattered /v1/mine matches the single-box response"
req='{"db":"shop","per":60,"minPSPercent":2,"minRec":1}'
# elapsedMS/miningMS are wall times and cached flips on repeats; everything
# else — count, patterns, intervals — must match byte for byte. Bodies are
# one compact line, and none of the three fields is the last one.
curl -sf "http://$coord/v1/mine" -d "$req" \
    | sed -E 's/"(elapsedMS|miningMS|cached)":[^,]*,//g' >"$workdir/scattered.json"
curl -sf "http://$p1/v1/mine" -d "$req" \
    | sed -E 's/"(elapsedMS|miningMS|cached)":[^,]*,//g' >"$workdir/singlebox.json"
diff "$workdir/scattered.json" "$workdir/singlebox.json" \
    || { echo "scattered response diverges from single-box"; exit 1; }
grep -q '"partial"' "$workdir/scattered.json" \
    && { echo "healthy scatter marked partial"; exit 1; }

echo "== per-peer shard counters in /metrics"
metrics=$(curl -sf "http://$coord/metrics")
for peer in "http://$p1" "http://$p2"; do
    grep -q "^rpserved_shard_peer_success_total{peer=\"$peer\"} " <<<"$metrics" \
        || { echo "metrics missing success counter for $peer:"; echo "$metrics" | grep shard_peer || true; exit 1; }
    # Plan-order placement homes 2 of the 3 tasks on one peer and 1 on
    # the other, so every peer served at least one.
    n=$(grep "^rpserved_shard_peer_success_total{peer=\"$peer\"} " <<<"$metrics" | awk '{print $2}')
    [ "$n" -ge 1 ] || { echo "peer $peer served $n scattered tasks, want >= 1"; exit 1; }
done
total=$(grep '^rpserved_shard_peer_success_total' <<<"$metrics" | awk '{s+=$2} END {print s}')
[ "$total" = "3" ] || { echo "peer success counters sum to $total, want 3"; exit 1; }
grep -q '^rpserved_shard_peer_phase_seconds{' <<<"$metrics" \
    || { echo "metrics missing the per-peer per-phase family"; exit 1; }

echo "== peer journals joined on the coordinator's request id hold every task once"
id=$(curl -sf "http://$coord/debug/requests?format=json" \
    | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$id" ] || { echo "coordinator journal has no request entries"; exit 1; }
# One row per served task: the journal's recent list (the slow bucket may
# repeat an entry), cut from the id to the mineMS field. No field in
# between holds a brace. Peers journal a task just after answering it, so
# poll briefly.
for _ in $(seq 1 50); do
    rows=$(for host in "$p1" "$p2"; do
        curl -sf "http://$host/debug/requests?format=json" | sed 's/,"slow":.*//' \
            | grep -oE "\"id\":\"$id\"[^}]*\"mineMS\":[0-9.eE+-]+" || true
    done | grep '"outcome":"shard-ok"' || true)
    [ "$(grep -c . <<<"$rows")" = "3" ] && break
    sleep 0.1
done
n=$(grep -c . <<<"$rows" || true)
[ "$n" = "3" ] || { echo "peers journalled $n served tasks under id $id, want 3:"; echo "$rows"; exit 1; }
for k in 0 1 2; do
    c=$(grep -c "shard=$k/3\"" <<<"$rows" || true)
    [ "$c" = "1" ] || { echo "task shard=$k/3 journalled $c times under id $id, want 1:"; echo "$rows"; exit 1; }
done
grep -oE '"mineMS":[0-9.eE+-]+$' <<<"$rows" | cut -d: -f2 | awk '$1 <= 0 { bad = 1 } END { exit bad }' \
    || { echo "a joined task row has no mine time:"; echo "$rows"; exit 1; }

echo "== /v1/fleet/stats fans out to both peers"
fleet=$(curl -sf "http://$coord/v1/fleet/stats")
for peer in "http://$p1" "http://$p2"; do
    grep -q "\"url\":\"$peer\"" <<<"$fleet" \
        || { echo "fleet stats missing peer $peer: $fleet"; exit 1; }
done
grep -q '"error"' <<<"$fleet" && { echo "fleet stats reported a peer error: $fleet"; exit 1; }
# A peer is not a coordinator: the endpoint 404s there.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$p1/v1/fleet/stats")
[ "$code" = "404" ] || { echo "peer answered /v1/fleet/stats with $code, want 404"; exit 1; }

echo "== peers recorded the shard requests"
peer_shards=0
for log in peer1 peer2; do
    s=$(curl -sf "http://$([ "$log" = peer1 ] && echo "$p1" || echo "$p2")/v1/stats" \
        | grep -o '"shardRequests":[0-9]*' | grep -o '[0-9]*$')
    peer_shards=$((peer_shards + s))
done
[ "$peer_shards" = "3" ] || { echo "peers saw $peer_shards shard requests, want 3"; exit 1; }

echo "== access logs: served shard tasks on every peer, the served mine on the coordinator"
wait_log 'msg=mine .*outcome=ok ' "$workdir/coord.log"
for _ in $(seq 1 50); do
    served=$(cat "$workdir/peer1.log" "$workdir/peer2.log" | grep -cE 'msg=shard-mine .*outcome=shard-ok ' || true)
    [ "$served" = "3" ] && break
    sleep 0.1
done
[ "$served" = "3" ] || { echo "peers logged $served served shard tasks, want 3"; exit 1; }
# Every peer also gets one task posted directly, outside any scatter.
for host in "$p1" "$p2"; do
    curl -sf "http://$host/v1/shard/mine" \
        -d '{"v":1,"db":"shop","per":60,"minPSPercent":2,"minRec":1,"shard":0,"shards":2}' >/dev/null \
        || { echo "direct shard task to $host failed"; exit 1; }
done
for log in peer1 peer2; do
    wait_log 'msg=shard-mine .*outcome=shard-ok ' "$workdir/$log.log"
done

echo "== a 2 MiB shard-task body is refused with 413"
code=$(head -c $((2 << 20)) /dev/zero | tr '\0' ' ' \
    | curl -s -o /dev/null -w '%{http_code}' --data-binary @- "http://$p1/v1/shard/mine" || true)
[ "$code" = "413" ] || { echo "oversized shard body answered $code, want 413"; exit 1; }
wait_log 'msg=shard-mine .*outcome=body-too-large ' "$workdir/peer1.log"

echo "== repeat scattered mine is a coordinator cache hit"
warm=$(curl -sf "http://$coord/v1/mine" -d "$req")
grep -q '"cached":true' <<<"$warm" || { echo "repeat scattered mine missed the cache: $warm"; exit 1; }

echo "== failover: with one peer down, a new mine still matches single-box"
# Fail-fast is the only shard policy, so an outage is survived by retrying
# each of the stopped peer's tasks on the next peer of its failover order.
kill -TERM "$p2pid"
for _ in $(seq 1 100); do
    kill -0 "$p2pid" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$p2pid" 2>/dev/null && { echo "peer 2 did not exit after SIGTERM"; exit 1; }
live=()
for pid in "${pids[@]}"; do
    [ "$pid" = "$p2pid" ] || live+=("$pid")
done
pids=("${live[@]}")
req2='{"db":"shop","per":90,"minPSPercent":2,"minRec":1}'
curl -sf "http://$coord/v1/mine" -d "$req2" \
    | sed -E 's/"(elapsedMS|miningMS|cached)":[^,]*,//g' >"$workdir/failover.json" \
    || { echo "scattered mine failed with one peer down"; exit 1; }
curl -sf "http://$p1/v1/mine" -d "$req2" \
    | sed -E 's/"(elapsedMS|miningMS|cached)":[^,]*,//g' >"$workdir/survivor.json"
diff "$workdir/failover.json" "$workdir/survivor.json" \
    || { echo "failover response diverges from the surviving peer's single-box mine"; exit 1; }
grep -q '"count":0,' "$workdir/failover.json" \
    && { echo "failover mine found no patterns; the step proves nothing"; exit 1; }
retries=$(curl -sf "http://$coord/metrics" \
    | grep '^rpserved_shard_peer_retries_total' | awk '{s+=$2} END {print s+0}')
[ "$retries" -ge 1 ] || { echo "shard retries sum to $retries after a peer outage, want >= 1"; exit 1; }

echo "== graceful shutdown"
for pid in "${pids[@]}"; do
    kill -TERM "$pid"
done
for pid in "${pids[@]}"; do
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "server $pid did not exit after SIGTERM"; exit 1
    fi
done
pids=()

echo "== ok"
