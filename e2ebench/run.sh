#!/usr/bin/env bash
# Builds rpserved and the benchmark from this checkout into .bench_build/
# and runs the benchmark, passing every argument through:
#
#   bash e2ebench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and HOME point into .bench_build/
# too, so a run writes nothing outside the checkout. The first run builds
# the standard library into the empty cache; later runs reuse it. Go
# telemetry is switched off in that HOME: otherwise the go command starts a
# detached telemetry process that can outlive the run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home/.config/go/telemetry" "$out/work"
printf 'off\n' >"$out/home/.config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
cd "$root"
go build -o "$out/bin/rpserved" ./cmd/rpserved >&2
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -rpserved "$out/bin/rpserved" -work "$out/work" "$@"
