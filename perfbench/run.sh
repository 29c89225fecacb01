#!/usr/bin/env bash
# Builds gpusched and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-scan --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and temporary files stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gpusched" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a gpushare checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/gpusched" ./cmd/gpusched
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -gpusched "$out/gpusched" -out "$out" "$@"
