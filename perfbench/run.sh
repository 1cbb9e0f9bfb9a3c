#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artifact, cache and scratch
# file stays under .bench_build/ at the root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
work="$(pwd)/.bench_build"
mkdir -p "$work/gocache" "$work/gotmp" "$work/config"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOPATH="$work/gopath" \
	XDG_CONFIG_HOME="$work/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off
go -C perfbench build -o "$work/perfbench" .
exec "$work/perfbench" -workdir "$work" "$@"
