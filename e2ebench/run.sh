#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run it from the root of the repository, for example:
#   bash e2ebench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
# The binary, the Go build cache, the Go tool's own files and the
# benchmark's scratch files go to $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -dir "$out" "$@"
