# Repository targets. `make check` is the gate CI runs.

GO ?= go
SHELL := /bin/bash

.PHONY: help build test check bench bench-core bench-ingest bench-diff fmt vet rpvet vet-fix-check vet-sarif

help:
	@echo "Targets:"
	@echo "  build          go build ./..."
	@echo "  test           go test ./..."
	@echo "  check          full gate: gofmt, go vet, rpvet, build, race tests (CI runs this)"
	@echo "  bench          end-to-end table benchmarks (root package)"
	@echo "  bench-core     core hot-path benchmarks; updates BENCH_core.json via cmd/benchfmt"
	@echo "  bench-ingest   ingest-path benchmarks (sequential and parallel text parse, v2 mapped); updates BENCH_ingest.json"
	@echo "  bench-diff     fresh core-benchmark run vs BENCH_core.json, Mann-Whitney per benchmark (exit 1 on regression)"
	@echo "  fmt            gofmt -w ."
	@echo "  vet            go vet ./..."
	@echo "  rpvet          custom static-analysis passes"
	@echo "  vet-fix-check  assert rpvet -fix -diff is empty (every suggested fix is applied)"
	@echo "  vet-sarif      write rpvet's findings to rpvet.sarif for code scanning"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full gate: gofmt, go vet, rpvet, build, race-enabled tests.
check:
	./scripts/check.sh

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Tracked baseline for the internal/core hot path: run the micro-benchmarks
# and refresh the committed JSON report.
bench-core:
	set -o pipefail; $(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/core/ | $(GO) run ./cmd/benchfmt -out BENCH_core.json

# Tracked baseline for the ingest path: sequential vs chunked-parallel text
# parsing at several worker counts, plus the v2 mapped-view and mapped-file
# loads, over the shared 16MB corpus.
bench-ingest:
	set -o pipefail; $(GO) test -run '^$$' -bench Ingest -benchmem -count 3 ./internal/tsdb/ | $(GO) run ./cmd/benchfmt -out BENCH_ingest.json

# Statistical comparison of a fresh core-benchmark run against the tracked
# baseline (Mann-Whitney per benchmark; see cmd/rpbenchdiff). Exits 1 when
# a benchmark regressed significantly. BENCH_COUNT samples per benchmark.
BENCH_COUNT ?= 5
bench-diff:
	set -o pipefail; \
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/core/ > /tmp/rpbenchdiff-new.txt; \
	$(GO) run ./cmd/rpbenchdiff BENCH_core.json /tmp/rpbenchdiff-new.txt

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

rpvet:
	$(GO) run ./cmd/rpvet ./...

# Fails when any pass still carries an unapplied suggested fix: the tree
# must be a fixed point of `rpvet -fix`.
vet-fix-check:
	$(GO) run ./cmd/rpvet -fix -diff ./...

# Writes the findings as SARIF 2.1.0 for GitHub code scanning; always
# produces the file, even when there are findings (CI uploads it and then
# fails on the gate instead).
vet-sarif:
	$(GO) run ./cmd/rpvet -format=sarif ./... > rpvet.sarif || true
	@echo "wrote rpvet.sarif"
