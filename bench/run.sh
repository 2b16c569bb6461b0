#!/usr/bin/env bash
# Builds mcbench from the sources in this checkout and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload job-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout; the benchmark's own output
# files go to bench/out/. The build needs no network: the module has no
# dependencies outside this repository.
set -euo pipefail

root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/cache" "$build/tmp" "$build/home"
(
	export HOME=$build/home XDG_CONFIG_HOME=$build/home GOCACHE=$build/cache GOTMPDIR=$build/tmp \
		GOPATH=$build/home/go GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
	cd bench
	go build -o "$build/mcbench" ./cmd/mcbench
)
exec "$build/mcbench" -out bench/out "$@"
