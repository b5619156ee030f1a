#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ (the only place it writes) and runs one workload.
#   bash bench/run.sh --workload serve_batch --seed 1 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
bb="$root/.bench_build"
mkdir -p "$bb/tmp"
# Keep the toolchain's cache, temp files and config inside the checkout.
(
	cd "$here"
	HOME="$bb/home" XDG_CONFIG_HOME="$bb/home/.config" XDG_CACHE_HOME="$bb/home/.cache" \
		GOCACHE="$bb/gocache" GOPATH="$bb/gopath" GOTMPDIR="$bb/tmp" \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 \
		go build -o "$bb/acclaim-bench" .
)
cd "$root"
exec "$bb/acclaim-bench" "$@"
