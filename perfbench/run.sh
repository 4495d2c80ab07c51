#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload gemm-replay --seed 1 --seconds 20 --trace 0
#
# Run it from anywhere inside a checkout; every build artefact, the Go
# build cache and the span files stay under .bench_build at the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: $root holds no repro module to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
