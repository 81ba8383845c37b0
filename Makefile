# Repository targets. `make check` is the gate CI runs.

GO ?= go
SHELL := /bin/bash

.PHONY: help build test check bench bench-core bench-ingest bench-diff fmt vet rpvet

help:
	@echo "Targets:"
	@echo "  build          go build ./..."
	@echo "  test           go test ./..."
	@echo "  check          full gate: gofmt, go vet, rpvet, build, race tests (CI runs this)"
	@echo "  bench          end-to-end table benchmarks (root package)"
	@echo "  bench-core     core hot-path benchmarks; updates BENCH_core.json via cmd/rpbenchdiff -out"
	@echo "  bench-ingest   ingest-path benchmarks (streaming and one-pass text parse, Table 7 texts, v2 mapped); updates BENCH_ingest.json"
	@echo "  bench-diff     fresh core and ingest benchmark runs vs BENCH_core.json and BENCH_ingest.json, Mann-Whitney per benchmark (exit 1 on regression)"
	@echo "  fmt            gofmt -w ."
	@echo "  vet            go vet ./..."
	@echo "  rpvet          custom static-analysis passes"

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
	set -o pipefail; $(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/core/ | $(GO) run ./cmd/rpbenchdiff -out BENCH_core.json

# Tracked baseline for the ingest path: the streaming and the one-pass
# text parsers over the shared 16MB corpus, the one-pass parser over one
# Table 7 batch pass's texts, and the v2 mapped-view and mapped-file loads.
bench-ingest:
	set -o pipefail; $(GO) test -run '^$$' -bench Ingest -benchmem -count 3 ./internal/tsdb/ | $(GO) run ./cmd/rpbenchdiff -out BENCH_ingest.json

# Statistical comparison of fresh core and ingest benchmark runs against
# their tracked baselines (Mann-Whitney per benchmark; see
# cmd/rpbenchdiff). Both comparisons run; exits 1 when a benchmark of
# either regressed significantly. BENCH_COUNT samples per benchmark.
BENCH_COUNT ?= 5
bench-diff:
	status=0; \
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/core/ > /tmp/rpbenchdiff-core.txt && \
	$(GO) run ./cmd/rpbenchdiff BENCH_core.json /tmp/rpbenchdiff-core.txt || status=1; \
	$(GO) test -run '^$$' -bench Ingest -benchmem -count $(BENCH_COUNT) ./internal/tsdb/ > /tmp/rpbenchdiff-ingest.txt && \
	$(GO) run ./cmd/rpbenchdiff BENCH_ingest.json /tmp/rpbenchdiff-ingest.txt || status=1; \
	exit $$status

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

rpvet:
	$(GO) run ./cmd/rpvet ./...
