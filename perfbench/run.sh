#!/usr/bin/env bash
# Builds cmd/hhd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload hhd-ingest --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, scratch files and trace files all stay
# under .bench_build/ (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .
go -C "$root" build -o "$out/hhd" ./cmd/hhd
cd "$root"
exec "$out/perfbench" --hhd "$out/hhd" --workdir "$out" "$@"
