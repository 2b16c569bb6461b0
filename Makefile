# mcpaging build targets. Everything is stdlib Go; no external tools are
# required beyond the Go toolchain.

GO ?= go

.PHONY: all build test vet fmt lint bench bench-baseline benchstat soak experiments cover cover-gate smoke serve fleet verify verify-quick verify-baseline clean

# Benchmarks the comparison targets track: the simulator serve paths,
# the batch harness, the mcservd service path (jobs, sweeps, JobKey),
# a sweep through an mcfleet gateway over two workers (BenchmarkFleet*),
# workload generation and binary-trace decode (the generate and decode
# halves of Resolve), the eviction policies on their own
# (BenchmarkPolicy*), plus the root throughput benches.
BENCH_PATTERN ?= BenchmarkSim|BenchmarkSweepGrid|BenchmarkServe|BenchmarkFleet|BenchmarkJobKey|BenchmarkGenerate|BenchmarkTrace|BenchmarkPolicy
BENCH_PKGS ?= . ./internal/sim/ ./internal/sweep/ ./internal/server/ ./internal/fleet/ ./internal/workload/ ./internal/trace/ ./internal/cache/
BENCH_COUNT ?= 5

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short mode skips the soak tests.
test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .
	@test -z "$$(gofmt -l .)" || (echo "gofmt needed" && exit 1)

# The repo's own analyzer suite (docs/lint.md) plus the stock checks.
lint:
	$(GO) run ./cmd/mcvet ./...
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || (gofmt -l . && echo "gofmt needed" && exit 1)

bench:
	$(GO) test -run XXX -bench . -benchmem .

# Save the current tree's numbers as the baseline for `make benchstat`.
bench-baseline:
	$(GO) test -run XXX -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) | tee bench_old.txt

# Re-measure and compare against the saved baseline (benchstat when
# installed, a plain diff of means otherwise).
benchstat:
	$(GO) test -run XXX -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) | tee bench_new.txt
	./scripts/bench_compare.sh bench_old.txt bench_new.txt

soak:
	$(GO) test -run Soak -v .

# Full-size reproduction of every paper claim (EXPERIMENTS.md tables).
experiments:
	$(GO) run ./cmd/mcexp

smoke:
	./scripts/smoke.sh

# Statistical verification of the committed claim manifest
# (verify/claims.json; see docs/verify.md). verify-quick is the per-PR
# CI gate; verify is the full run the nightly workflow scales up.
verify:
	$(GO) run ./cmd/mcverify -workers 4 -v

verify-quick:
	$(GO) run ./cmd/mcverify -quick -workers 4 -v

# Refresh verify/baseline.json after intentionally changing claims or
# prover semantics (runs both quick and full modes).
verify-baseline:
	$(GO) run ./cmd/mcverify -update-baseline -workers 4 -v

# Run the simulation service locally (see docs/server.md for the API).
SERVE_ADDR ?= :8080
serve:
	$(GO) run ./cmd/mcservd -addr $(SERVE_ADDR)

# Run a local fleet: FLEET_WORKERS mcservd workers on random ports plus
# the mcfleet coordinator on FLEET_ADDR (see docs/fleet.md).
FLEET_ADDR ?= :9090
FLEET_WORKERS ?= 2
fleet:
	./scripts/fleet.sh $(FLEET_ADDR) $(FLEET_WORKERS)

# Short mode: the soak tests are excluded from coverage passes (run
# `make soak` for them); this matches the CI coverage gate.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# CI's coverage floor, runnable locally (raised from the 83.4% seed
# baseline when internal/verify landed).
cover-gate:
	./scripts/coverage_gate.sh 84.5

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_old.txt bench_new.txt
	rm -rf telemetry/ out/
