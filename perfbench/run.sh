#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it. Run it
# from the root of the checkout; every argument is passed through:
#
#   bash perfbench/run.sh --workload edge-steady --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh spread --workload edge-steady --runs 10 --seconds 30
#
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; nothing is fetched over the network.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT

(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
