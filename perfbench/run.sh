#!/usr/bin/env bash
# Builds the benchmark harness and the CLIs it drives from the checkout in
# the current directory, then runs one benchmark workload.
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR, when set, resolved against the checkout root).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sentinel-bench" ]]; then
	echo "perfbench: run from the root of a sentinel checkout" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/sentinel-bench ./cmd/sentinel-serve ./cmd/sentinel-sweep >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -tmp "$build/tmp" "$@"
