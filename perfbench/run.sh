#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-1500 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout. Arguments are passed
# through to the benchmark binary.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
if ! env HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOFLAGS=-mod=mod \
	GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off \
	go -C "$root/perfbench" build -buildvcs=false -ldflags "-X main.buildCommit=$commit" \
	-o "$out/perfbench" . >&2; then
	echo "perfbench: build failed; run from the root of a sensjoin checkout" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
