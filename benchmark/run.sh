#!/usr/bin/env bash
# Builds the served end-to-end benchmark from this checkout and runs it.
#
#   bash benchmark/run.sh --workload tatp-read-mostly --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, data directories, traces) lands under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
# Keep the toolchain's caches, config and telemetry inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/plp-e2e-bench" .) >&2
exec "$out/plp-e2e-bench" -root "$root" -work "$out/run" "$@"
