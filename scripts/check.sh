#!/usr/bin/env bash
# check.sh — the repository gate. Runs gofmt, go vet, rpvet, go build and
# the race-enabled test suite, in that order; CI fails on the first red
# step. Run it locally as `make check` (or ./scripts/check.sh) before
# pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s\n' "$*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "rpvet (determinism, errcheck, layering, concurrency, sortslice, ctxflow, goroutine-lifecycle)"
go run ./cmd/rpvet ./...

step "go build"
go build ./...

step "go test -race"
go test -race ${GOTESTFLAGS:-} ./...

step "ok"
