#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload pipeline-1x --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the durable workload's
# WAL and checkpoints, and the written-out trace spans.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The sources of the system under test live at the checkout root; a
# directory holding only the benchmark cannot build it and fails here.
if [[ ! -f "$root/go.mod" ]]; then
	echo "e2ebench: no go.mod at $root: the system's sources are missing" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	go -C "$root/e2ebench" build -o "$out/e2ebench" .

exec "$out/e2ebench" --root "$root" "$@"
