#!/usr/bin/env bash
# Builds slserve and the benchmark driver from this checkout, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and every run's scratch state stay under
# .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/slserve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a dpslog checkout" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
go build -o "$out/slserve" ./cmd/slserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -slserve "$out/slserve" -workdir "$out" "$@"
