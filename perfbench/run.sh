#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig10 --seed 1 --seconds 45 --trace 0
#
# The Go build cache, the toolchain's temporary and configuration files
# and the binary live in .bench_build at the root, so the run writes only
# inside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
